// Command worldgen generates a synthetic world and describes it: country
// populations, designed diurnal fractions, link-technology mixes, the /8
// allocation calendar, and the operator (AS/organization) inventory.
//
// Usage:
//
//	worldgen [-blocks N] [-seed N] [-v]
package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"os"
	"sort"

	"sleepnet/internal/report"
	"sleepnet/internal/world"
)

// errUsage reports a bad command line, already explained on stderr.
var errUsage = errors.New("usage")

func main() {
	var out bytes.Buffer
	err := run(os.Args[1:], &out)
	fmt.Print(out.String())
	switch {
	case errors.Is(err, errUsage):
		os.Exit(2)
	case err != nil:
		fmt.Fprintln(os.Stderr, "worldgen:", err)
		os.Exit(1)
	}
}

// run generates the world args describe and writes its description to out.
func run(args []string, out *bytes.Buffer) error {
	fs := flag.NewFlagSet("worldgen", flag.ContinueOnError)
	blocks := fs.Int("blocks", 3000, "number of /24 blocks")
	seed := fs.Uint64("seed", 42, "generator seed")
	verbose := fs.Bool("v", false, "list individual ISPs and /8 allocations")
	if err := fs.Parse(args); err != nil {
		return errUsage
	}

	w, err := world.Generate(world.Config{Blocks: *blocks, Seed: *seed})
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "world: %d blocks, %d ISPs, %d allocated /8s, seed %d\n\n",
		len(w.Blocks), len(w.ISPs), len(w.AllocDates), *seed)

	type agg struct{ n, diurnal int }
	byCountry := map[string]*agg{}
	byLink := map[string]*agg{}
	for _, b := range w.Blocks {
		c := byCountry[b.Country.Code]
		if c == nil {
			c = &agg{}
			byCountry[b.Country.Code] = c
		}
		l := byLink[b.LinkType]
		if l == nil {
			l = &agg{}
			byLink[b.LinkType] = l
		}
		c.n++
		l.n++
		if b.DesignedDiurnal {
			c.diurnal++
			l.diurnal++
		}
	}

	var codes []string
	for code := range byCountry {
		codes = append(codes, code)
	}
	sort.Slice(codes, func(i, j int) bool { return byCountry[codes[i]].n > byCountry[codes[j]].n })
	rows := [][]string{}
	for _, code := range codes {
		c := world.CountryByCode(code)
		a := byCountry[code]
		rows = append(rows, []string{
			code, c.Region, fmt.Sprint(a.n),
			report.F(float64(a.diurnal) / float64(a.n)),
			report.F(c.DiurnalFrac),
			fmt.Sprintf("%.0f", c.GDP),
		})
	}
	fmt.Fprintln(out, "country populations (designed diurnal fraction vs target):")
	fmt.Fprint(out, report.Table([]string{"country", "region", "blocks", "designed", "target", "GDP"}, rows))

	fmt.Fprintln(out, "\nlink technologies:")
	rows = rows[:0]
	for _, lt := range world.LinkTypes {
		a := byLink[lt]
		if a == nil {
			continue
		}
		rows = append(rows, []string{
			lt, fmt.Sprint(a.n), report.F(float64(a.diurnal) / float64(a.n)),
		})
	}
	fmt.Fprint(out, report.Table([]string{"link", "blocks", "designed diurnal"}, rows))

	if *verbose {
		fmt.Fprintln(out, "\n/8 allocation calendar:")
		var s8s []int
		for s8 := range w.AllocDates {
			s8s = append(s8s, s8)
		}
		sort.Ints(s8s)
		for _, s8 := range s8s {
			fmt.Fprintf(out, "  %3d/8  %s\n", s8, w.AllocDates[s8].Format("2006-01"))
		}
		fmt.Fprintln(out, "\nISPs:")
		for _, isp := range w.ISPs {
			fmt.Fprintf(out, "  %-40s %s ASNs=%v\n", isp.Name, isp.Country, isp.ASNs)
		}
	}
	return nil
}
