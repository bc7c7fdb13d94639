package lint

// fsyncorder keeps the WAL sealing contract in one place: an atomic rename
// only makes data durable if the temp file was fsynced before the rename
// and the directory is fsynced after it. internal/durable owns that
// sequence (WriteFileAtomic, Rename+SyncDir, the injectable fsync seam), so
// outside a durable package calling os.Rename directly is the finding —
// every atomic replace in this codebase must go through the helpers, or the
// fsync gets forgotten exactly once (it did: the analysis checkpoint rewrite
// and the since-deleted dataset save both renamed without a sync until this
// rule flagged them). Inside durable, where os.Rename is the implementation, the order
// itself is pinned by the package's tests (TestSealOrder,
// TestCreateSyncsDirectory, TestWriteFileAtomic, TestRenameDurable).

import (
	"go/ast"
	"strings"
)

// FsyncOrder routes every rename through internal/durable.
type FsyncOrder struct{}

func (FsyncOrder) Name() string { return "fsyncorder" }
func (FsyncOrder) Doc() string {
	return "os.Rename must go through internal/durable, whose tests pin the fsync-rename-dirsync order"
}

// isPkgFunc reports whether call is pkgPath.name.
func isPkgFunc(p *Pass, call *ast.CallExpr, pkgPath, name string) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	obj := p.Info.Uses[sel.Sel]
	return obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == pkgPath && obj.Name() == name
}

func (FsyncOrder) Check(p *Pass) {
	if strings.HasSuffix(p.PkgPath, "/durable") || p.PkgPath == "durable" {
		return
	}
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || !isPkgFunc(p, call, "os", "Rename") {
				return true
			}
			p.Report(call, "fsyncorder",
				"os.Rename here skips the fsync-before/dirsync-after the durability contract requires",
				"use durable.WriteFileAtomic or durable.Rename")
			return true
		})
	}
}
