// Package durable exercises fsyncorder's one exemption: inside a durable
// package os.Rename is the implementation, so calling it directly is not a
// finding. The fsync order around the rename is pinned by the real
// package's tests, not by the rule.
package durable

import "os"

// Rename moves a file and syncs its directory, as in the real package.
func Rename(old, new string) error {
	if err := os.Rename(old, new); err != nil {
		return err
	}
	return SyncDir(".")
}

// SyncDir fsyncs a directory, as in the real package.
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	if err := d.Sync(); err != nil {
		_ = d.Close()
		return err
	}
	return d.Close()
}
