package dftsp

import (
	"encoding/json"
	"errors"
	"flag"
	"io"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// TestFlagsMatchJSON holds each flag that RegisterFlags binds to its
// field's JSON name: setting the flag gives the struct that decoding the
// same value from a request body gives. It reflects over the JSON tags, so
// a field without a flag, a flag under another name or a flag without a
// field fails it. The code source of Options stays with each command.
func TestFlagsMatchJSON(t *testing.T) {
	for _, tc := range []struct {
		name     string
		new      func() any
		register func(v any, fs *flag.FlagSet)
		unbound  []string // JSON names deliberately left without a flag
	}{
		{
			name:     "Options",
			new:      func() any { return new(Options) },
			register: func(v any, fs *flag.FlagSet) { v.(*Options).RegisterFlags(fs) },
			unbound:  []string{"code", "surface_distance", "hx", "hz"},
		},
		{
			name:     "EstimateOptions",
			new:      func() any { return new(EstimateOptions) },
			register: func(v any, fs *flag.FlagSet) { v.(*EstimateOptions).RegisterFlags(fs) },
		},
	} {
		flags := func(v any) *flag.FlagSet {
			fs := flag.NewFlagSet(tc.name, flag.ContinueOnError)
			fs.SetOutput(io.Discard)
			tc.register(v, fs)
			return fs
		}
		all := map[string]bool{}
		flags(tc.new()).VisitAll(func(f *flag.Flag) { all[f.Name] = true })

		typ := reflect.TypeOf(tc.new()).Elem()
		for i := 0; i < typ.NumField(); i++ {
			field := typ.Field(i)
			tag, _, _ := strings.Cut(field.Tag.Get("json"), ",")
			name := strings.ReplaceAll(tag, "_", "-")
			if slices.Contains(tc.unbound, tag) {
				if all[name] {
					t.Errorf("%s.%s: -%s is bound, but the code source stays with each command", tc.name, field.Name, name)
				}
				continue
			}
			if !all[name] {
				t.Errorf("%s.%s: no flag -%s for JSON name %q", tc.name, field.Name, name, tag)
				continue
			}
			delete(all, name)
			flagText, jsonText := sampleValue(t, field.Type)
			fromFlag, fromJSON := tc.new(), tc.new()
			if err := flags(fromFlag).Parse([]string{"-" + name + "=" + flagText}); err != nil {
				t.Errorf("%s.%s: -%s=%s: %v", tc.name, field.Name, name, flagText, err)
				continue
			}
			if err := json.Unmarshal([]byte(`{"`+tag+`":`+jsonText+`}`), fromJSON); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(fromFlag, fromJSON) {
				t.Errorf("%s.%s: -%s=%s gives %+v, JSON %s gives %+v", tc.name, field.Name, name, flagText, fromFlag, jsonText, fromJSON)
			}
		}
		for name := range all {
			t.Errorf("%s: flag -%s binds no JSON field", tc.name, name)
		}
	}
}

// sampleValue returns one non-zero value of type typ, spelled as a flag
// argument and as JSON.
func sampleValue(t *testing.T, typ reflect.Type) (flagText, jsonText string) {
	switch typ.Kind() {
	case reflect.String:
		return "rare", `"rare"`
	case reflect.Bool:
		return "true", "true"
	case reflect.Int, reflect.Int64:
		return "7", "7"
	case reflect.Float64:
		return "0.25", "0.25"
	case reflect.Slice:
		if typ.Elem().Kind() == reflect.Float64 {
			return "0.01, 0.02", "[0.01,0.02]"
		}
	}
	t.Fatalf("no sample value of type %v", typ)
	return "", ""
}

// TestFlagsDefaultToReceiver checks that a command's preset is each flag's
// default, and that -rates refuses a bad list with the rate it could not
// read.
func TestFlagsDefaultToReceiver(t *testing.T) {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	o := Options{Prep: PrepOptimal}
	eo := EstimateOptions{TargetRSE: 0.1, Rates: []float64{1e-3, 0.02}}
	o.RegisterFlags(fs)
	eo.RegisterFlags(fs)
	for name, want := range map[string]string{"prep": "opt", "target-rse": "0.1", "rates": "0.001,0.02", "seed": "0"} {
		if got := fs.Lookup(name).DefValue; got != want {
			t.Errorf("-%s default %q, want %q", name, got, want)
		}
	}
	if err := fs.Parse([]string{"-rates", ""}); err != nil || eo.Rates != nil {
		t.Fatalf(`-rates "": err %v, rates %v; want no rates`, err, eo.Rates)
	}
	err := fs.Parse([]string{"-rates", "0.01,banana"})
	if err == nil || !strings.Contains(err.Error(), `bad rate "banana"`) {
		t.Fatalf("bad rate list: err = %v", err)
	}
}

// TestCodes resolves -codes lists the way Options.Code is resolved.
func TestCodes(t *testing.T) {
	all, err := Codes("")
	if err != nil || len(all) != 9 || all[0].Name != "Steane" || all[8] != (CodeDescriptor{Name: "Tesseract", N: 16, K: 6, D: 4}) {
		t.Fatalf("empty list = %v, %v; want the whole catalog in Table I order", all, err)
	}
	got, err := Codes("steane, 11-1-3,Carbon")
	if err != nil {
		t.Fatal(err)
	}
	want := []CodeDescriptor{
		{Name: "Steane", N: 7, K: 1, D: 3},
		{Name: "[[11,1,3]]", N: 11, K: 1, D: 3},
		{Name: "Carbon", N: 12, K: 2, D: 4},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Codes = %v, want %v", got, want)
	}
	_, err = Codes("Steane,NoSuchCode")
	if !errors.Is(err, ErrUnknownCode) || !errors.Is(err, ErrBadOptions) || !strings.Contains(err.Error(), "Tesseract") {
		t.Fatalf("unknown name: err = %v, want ErrUnknownCode listing the catalog", err)
	}
}

// TestUnknownCodeKeyAllocs bounds the cost of refusing an unknown code,
// which every such 400 pays: listing the catalog's names must not build
// its codes (building all nine took 5459 allocations).
func TestUnknownCodeKeyAllocs(t *testing.T) {
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := (Options{Code: "NoSuchCode"}).Key(); !errors.Is(err, ErrUnknownCode) {
			t.Fatal(err)
		}
	})
	if allocs > 100 {
		t.Fatalf("unknown-code Key: %.0f allocations, want <= 100", allocs)
	}
	t.Logf("unknown-code Key: %.0f allocations", allocs)
}
