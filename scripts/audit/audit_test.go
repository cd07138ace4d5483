package main

import (
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"
)

// fixtureRules hold testdata/fixture to the audit, as chimera holds the
// repository: shapes above low, and internal/oracle the oracle.
var fixtureRules = rules{
	facade: "fixture",
	oracle: "fixture/internal/oracle",
	layers: []string{
		"fixture",
		"fixture/internal/shapes",
		"fixture/internal/low",
		"fixture/internal/oracle",
	},
}

// TestAuditFixture runs the audit on a module where each rule has one
// breach and each way a declaration is reached has one case. It flags a
// test-only method that shares its name with another type's used method
// (which a scan by name passes), an unexported func and a const only tests
// use, an import up the layer table and a non-test import of the oracle.
// It passes a generic method used only through an instantiation, String
// methods reached only through fmt.Stringer (one of a generic type, by an
// instance), and a method of a type the facade aliases.
func TestAuditFixture(t *testing.T) {
	start := time.Now()
	findings, err := audit([]string{"testdata/fixture"}, fixtureRules)
	if err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Errorf("audit of the fixture took %v, want under 2 s", d)
	}
	var got []string
	for _, f := range findings {
		if i := strings.LastIndex(f, ": "); i >= 0 {
			f = f[i+2:] // drop the declaration's position
		}
		got = append(got, f)
	}
	sort.Strings(got)
	want := []string{
		"(*shapes.Ring).Len",
		"fixture/internal/low imports fixture/internal/oracle, which only tests may import",
		"fixture/internal/low imports fixture/internal/shapes, which is not below it in the layer table",
		"shapes.helper",
		"shapes.limit",
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("findings:\n  %s\nwant:\n  %s", strings.Join(findings, "\n  "), strings.Join(want, "\n  "))
	}
}
