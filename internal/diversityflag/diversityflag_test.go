package diversityflag

import (
	"flag"
	"io"
	"strings"
	"testing"
)

// TestFlagRejectsRetiredKeys pins the CLI half of the radius-
// only spec: -diversity with a retired allocator key is a flag error
// that names the key, and a radius-only spec parses.
func TestFlagRejectsRetiredKeys(t *testing.T) {
	for _, key := range []string{"floor", "window", "interval"} {
		fs := flag.NewFlagSet("t", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		RegisterOn(fs, "")
		err := fs.Parse([]string{"-diversity", "radius=2," + key + "=1"})
		if err == nil || !strings.Contains(err.Error(), key) {
			t.Errorf("-diversity with %s: error %v, want one naming the key", key, err)
		}
	}
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	v := RegisterOn(fs, "")
	if err := fs.Parse([]string{"-diversity", "radius=2"}); err != nil {
		t.Fatal(err)
	}
	if !v.Given() || v.Spec().Radius != 2 {
		t.Errorf("-diversity radius=2 gave %+v (given %v)", v.Spec(), v.Given())
	}
}
