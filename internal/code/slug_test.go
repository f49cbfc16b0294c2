package code

import "testing"

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
