package main

import (
	"bytes"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"testing"

	"sleepnet/internal/world"
)

// TestWorldgenDescribesTheWorld runs worldgen at 200 blocks: the world line
// must print the number of blocks the generator returned, which rounds the
// per-country allocation up past the hint, and the country and link tables
// must cover every one of them.
func TestWorldgenDescribesTheWorld(t *testing.T) {
	w, err := world.Generate(world.Config{Blocks: 200, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run([]string{"-blocks", "200", "-seed", "42"}, &out); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	if want := fmt.Sprintf("world: %d blocks, ", len(w.Blocks)); !strings.HasPrefix(text, want) {
		t.Fatalf("first line %q, want it to start %q", strings.SplitN(text, "\n", 2)[0], want)
	}

	countries, links, ok := strings.Cut(text, "\nlink technologies:\n")
	if !ok || !strings.Contains(countries, "country populations") {
		t.Fatalf("output lacks the country or link table:\n%s", text)
	}
	for _, b := range w.Blocks {
		if !strings.Contains(countries, "\n"+b.Country.Code+" ") {
			t.Errorf("country table has no row for %s", b.Country.Code)
		}
	}
	sum := 0
	for _, line := range strings.Split(links, "\n")[2:] { // past the header and its rule
		if f := strings.Fields(line); len(f) == 3 {
			n, err := strconv.Atoi(f[1])
			if err != nil {
				t.Fatalf("link row %q: %v", line, err)
			}
			sum += n
		}
	}
	if sum != len(w.Blocks) {
		t.Errorf("link table counts %d blocks, the world has %d", sum, len(w.Blocks))
	}

	if err := run([]string{"-planet", "mars"}, &out); !errors.Is(err, errUsage) {
		t.Fatalf("unknown flag: err = %v, want a usage error", err)
	}
}
