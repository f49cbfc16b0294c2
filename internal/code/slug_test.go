package code

import (
	"reflect"
	"testing"
)

func TestSlug(t *testing.T) {
	cases := map[string]string{
		"Steane":      "steane",
		"[[11,1,3]]":  "11-1-3",
		"[[16,2,4]]":  "16-2-4",
		"Surface_5":   "surface-5",
		"Tetrahedral": "tetrahedral",
		"  weird--":   "weird",
		"":            "",
	}
	for in, want := range cases {
		if got := Slug(in); got != want {
			t.Errorf("Slug(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestSlugsAreUniqueAcrossTheCatalog(t *testing.T) {
	seen := map[string]string{}
	for _, c := range Catalog() {
		s := Slug(c.Name)
		if s == "" {
			t.Errorf("catalog code %q has an empty slug", c.Name)
		}
		if prev, dup := seen[s]; dup {
			t.Errorf("catalog codes %q and %q share slug %q", prev, c.Name, s)
		}
		seen[s] = c.Name
	}
}

func TestCanonicalNameAndByNameAcceptRelaxedSpellings(t *testing.T) {
	for in, want := range map[string]string{
		"Steane":     "Steane",
		"steane":     "Steane",
		"STEANE":     "Steane",
		"11-1-3":     "[[11,1,3]]",
		"[[11,1,3]]": "[[11,1,3]]",
		"tesseract":  "Tesseract",
	} {
		c, err := ByName(in)
		if err != nil || c.Name != want {
			t.Errorf("ByName(%q) = (%v, %v), want code %q", in, c, err, want)
		}
	}
	if _, err := ByName("NoSuchCode"); err == nil {
		t.Error("ByName accepted an unknown name")
	}
}

// TestByNameMatchesCatalog resolves every catalog code by its name and by
// its slug, and requires the code Catalog lists.
func TestByNameMatchesCatalog(t *testing.T) {
	for _, want := range Catalog() {
		for _, name := range []string{want.Name, Slug(want.Name)} {
			got, err := ByName(name)
			if err != nil {
				t.Fatalf("ByName(%q): %v", name, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("ByName(%q) = %v, want Catalog's %v", name, got, want)
			}
		}
	}
}

// TestByNameBuildsOneCode bounds ByName's allocations by those of the one
// constructor it calls, plus the slug and the scan.
func TestByNameBuildsOneCode(t *testing.T) {
	one := testing.AllocsPerRun(20, func() { Steane() })
	byName := testing.AllocsPerRun(20, func() {
		if _, err := ByName("Steane"); err != nil {
			t.Fatal(err)
		}
	})
	if byName > one+4 {
		t.Errorf("ByName(\"Steane\") allocates %v times, Steane() %v", byName, one)
	}
}
