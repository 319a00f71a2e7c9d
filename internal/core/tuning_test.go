package core

import (
	"errors"
	"flag"
	"io"
	"strings"
	"testing"

	"abs/internal/backend"
	"abs/internal/diversity"
)

func TestParseTuningEmptyIsUnset(t *testing.T) {
	for _, text := range []string{"", " , ", "storage=auto,backend=auto"} {
		got, err := ParseTuning(text)
		if err != nil {
			t.Fatalf("ParseTuning(%q): %v", text, err)
		}
		if got != (Tuning{}) || got.String() != "" {
			t.Errorf("ParseTuning(%q) = %+v (%q), want the zero Tuning", text, got, got.String())
		}
	}
}

// TestParseTuningRadiusZeroIsExplicit pins the opt-out: radius=0 sets
// the whole admission spec to the defaults (radius 0), which is not the
// zero Spec, so it wins over a base in Over. The retired "off" literal
// is an error.
func TestParseTuningRadiusZeroIsExplicit(t *testing.T) {
	got, err := ParseTuning("radius=0")
	if err != nil {
		t.Fatal(err)
	}
	if got.Diversity != diversity.DefaultSpec() {
		t.Fatalf("radius=0 gave %+v, want DefaultSpec %+v", got.Diversity, diversity.DefaultSpec())
	}
	if got.Diversity == (diversity.Spec{}) {
		t.Fatal("radius=0 left the spec unset")
	}
	if _, err := ParseTuning("off"); err == nil {
		t.Error(`ParseTuning("off") accepted the retired literal`)
	}
}

func TestParseTuningOverridesOnlyNamedKeys(t *testing.T) {
	got, err := ParseTuning("radius=16, min=2 ")
	if err != nil {
		t.Fatal(err)
	}
	d := diversity.DefaultSpec()
	if got.Diversity.Radius != 16 || got.Diversity.MinPerBucket != 2 {
		t.Fatalf("overrides not applied: %+v", got.Diversity)
	}
	if got.Diversity.Buckets != d.Buckets {
		t.Fatalf("unnamed keys drifted from defaults: %+v", got.Diversity)
	}
	if got.Storage != StorageAuto || got.Backend != BackendAuto {
		t.Fatalf("unnamed storage/backend set: %+v", got)
	}

	got, err = ParseTuning("storage=sparse,backend=tabu")
	if err != nil {
		t.Fatal(err)
	}
	if got != (Tuning{Storage: StorageSparse, Backend: BackendTabu}) {
		t.Fatalf("storage/backend = %+v", got)
	}
}

func TestParseTuningErrors(t *testing.T) {
	for _, bad := range []string{
		"radius",              // no '='
		"radius=x",            // bad int
		"buckets=many",        // bad int
		"turbo=1",             // unknown key
		"buckets=0",           // fails validation
		"radius=-1",           // fails validation
		"radius=8,min=-2",     // fails validation
		"radius=8,,buckets=x", // bad value after empty element
		"off",                 // retired literal
		"storage",             // no '='
		"storage=columnar",    // unknown storage
		"storage=",            // empty storage
		"backend=columnar",    // unregistered backend
		"backend=",            // empty backend
	} {
		if _, err := ParseTuning(bad); err == nil {
			t.Errorf("ParseTuning(%q): want error, got nil", bad)
		}
	}
}

// TestParseTuningRejectsRetiredKeys pins the removal of the race
// allocator's keys: a tuning that still names one is an error that
// names the key, never a silent fall-back to the defaults.
func TestParseTuningRejectsRetiredKeys(t *testing.T) {
	for _, tc := range []struct{ text, key string }{
		{"floor=0.2", "floor"},
		{"radius=2,window=3s", "window"},
		{"interval=1s,radius=2", "interval"},
	} {
		_, err := ParseTuning(tc.text)
		if err == nil {
			t.Errorf("ParseTuning(%q) accepted a retired key", tc.text)
			continue
		}
		if !strings.Contains(err.Error(), `"`+tc.key+`"`) {
			t.Errorf("ParseTuning(%q) error %q does not name the key %q", tc.text, err, tc.key)
		}
	}
}

func TestParseTuningErrorNamesKnownKeys(t *testing.T) {
	_, err := ParseTuning("radious=8")
	if err == nil {
		t.Fatal("unknown key accepted")
	}
	for _, key := range []string{"storage", "backend", "radius", "buckets", "min"} {
		if !strings.Contains(err.Error(), key) {
			t.Errorf("unknown-key error %q should list the known key %q", err, key)
		}
	}
}

func TestParseTuningUnknownBackendListsRegistry(t *testing.T) {
	_, err := ParseTuning("backend=columnar")
	if !errors.Is(err, ErrUnknownBackend) {
		t.Fatalf("error %v does not match ErrUnknownBackend", err)
	}
	for _, name := range backend.Names() {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not list registered backend %q", err, name)
		}
	}
}

func TestTuningStringRoundTrips(t *testing.T) {
	for _, tu := range []Tuning{
		{},
		{Diversity: diversity.DefaultSpec()},
		{Diversity: diversity.Spec{Radius: 16, Buckets: 12, MinPerBucket: 2}},
		{Storage: StorageDense},
		{Backend: BackendRace, Diversity: diversity.Spec{Radius: 4, Buckets: 8, MinPerBucket: 1}},
		{Storage: StorageSparse, Backend: BackendSB},
	} {
		got, err := ParseTuning(tu.String())
		if err != nil {
			t.Fatalf("round-trip %q: %v", tu.String(), err)
		}
		if got != tu {
			t.Errorf("round-trip %q = %+v, want %+v", tu.String(), got, tu)
		}
	}
	// A zero Buckets is the default in Go; its text form must still parse.
	if s := (Tuning{Diversity: diversity.Spec{Radius: 4}}).String(); s != "radius=4,buckets=8,min=0" {
		t.Errorf("Go-default buckets rendered %q", s)
	}
}

// TestTuningOver pins the precedence rule: a set field wins, an unset
// one inherits, and a local radius=0 refuses a base's admission policy.
func TestTuningOver(t *testing.T) {
	grant := mustParseTuning(t, "storage=sparse,backend=tabu,radius=4,buckets=6")
	for _, tc := range []struct{ local, want string }{
		{"", "storage=sparse,backend=tabu,radius=4,buckets=6,min=1"},
		{"storage=dense", "storage=dense,backend=tabu,radius=4,buckets=6,min=1"},
		{"backend=sb", "storage=sparse,backend=sb,radius=4,buckets=6,min=1"},
		{"radius=0", "storage=sparse,backend=tabu,radius=0,buckets=8,min=1"},
		{"storage=dense,backend=race,radius=2", "storage=dense,backend=race,radius=2,buckets=8,min=1"},
	} {
		if got := mustParseTuning(t, tc.local).Over(grant).String(); got != tc.want {
			t.Errorf("%q over the grant = %q, want %q", tc.local, got, tc.want)
		}
	}
	if got := (Tuning{}).Over(Tuning{}); got != (Tuning{}) {
		t.Errorf("unset over unset = %+v", got)
	}
}

func TestTuningValidate(t *testing.T) {
	for _, ok := range []Tuning{
		{},
		{Storage: StorageSparse, Backend: BackendRace},
		{Diversity: diversity.Spec{Radius: 4}}, // zero Buckets means the default in Go
	} {
		if err := ok.Validate(); err != nil {
			t.Errorf("Validate(%+v): %v", ok, err)
		}
	}
	for _, bad := range []Tuning{
		{Storage: Storage(9)},
		{Backend: "columnar"},
		{Diversity: diversity.Spec{Radius: -1}},
	} {
		if err := bad.Validate(); err == nil {
			t.Errorf("Validate(%+v) accepted a bad tuning", bad)
		}
	}
	if err := (Tuning{Backend: "columnar"}).Validate(); !errors.Is(err, ErrUnknownBackend) {
		t.Errorf("unknown backend error %v does not match ErrUnknownBackend", err)
	}
}

// TestTuningFlagRejectsRetiredKeys pins the CLI half: -tuning with a
// retired allocator key is a flag error that names the key, and a
// radius-only tuning parses.
func TestTuningFlagRejectsRetiredKeys(t *testing.T) {
	for _, key := range []string{"floor", "window", "interval"} {
		fs := flag.NewFlagSet("t", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		var tu Tuning
		fs.Var(&tu, "tuning", TuningUsage(""))
		err := fs.Parse([]string{"-tuning", "radius=2," + key + "=1"})
		if err == nil || !strings.Contains(err.Error(), key) {
			t.Errorf("-tuning with %s: error %v, want one naming the key", key, err)
		}
	}
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	var tu Tuning
	fs.Var(&tu, "tuning", TuningUsage(""))
	if err := fs.Parse([]string{"-tuning", "radius=2"}); err != nil {
		t.Fatal(err)
	}
	if tu.Diversity.Radius != 2 {
		t.Errorf("-tuning radius=2 gave %+v", tu)
	}
}

// FuzzParseTuning: any text that parses must round-trip through
// String. The text arrives from flags, HTTP, the job journal and the
// cluster wire.
func FuzzParseTuning(f *testing.F) {
	for _, seed := range []string{
		"", "radius=0", "backend=race,radius=4", "storage=sparse,radius=16,buckets=12,min=2",
		"storage=auto,backend=auto", "min=0", "radius=+3, buckets=007", "off", "floor=0.2",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, text string) {
		tu, err := ParseTuning(text)
		if err != nil {
			return
		}
		if err := tu.Validate(); err != nil {
			t.Fatalf("ParseTuning(%q) = %+v fails Validate: %v", text, tu, err)
		}
		back, err := ParseTuning(tu.String())
		if err != nil {
			t.Fatalf("ParseTuning(%q).String() = %q does not parse: %v", text, tu.String(), err)
		}
		if back != tu {
			t.Fatalf("round trip of %q: %+v -> %q -> %+v", text, tu, tu.String(), back)
		}
	})
}

func mustParseTuning(t *testing.T, text string) Tuning {
	t.Helper()
	tu, err := ParseTuning(text)
	if err != nil {
		t.Fatalf("ParseTuning(%q): %v", text, err)
	}
	return tu
}
