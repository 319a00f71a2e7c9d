// Package diversityflag is the one place the -diversity command-line
// flag is defined, so every binary (abs-solve, abs-serve, abs-worker,
// abs-bench) spells it the same way: same name, same usage text, same
// diversity.ParseSpec validation. Precedence is uniform too — an
// explicit local spec wins, an unset flag defers to a coordinator
// grant where one exists (abs-worker) and otherwise to the defaults;
// the literal "off" pins the plain elite pool (radius 0).
package diversityflag

import (
	"flag"

	"abs/internal/diversity"
)

// Value is a flag.Value that only accepts the empty string, "off", or
// a valid diversity.ParseSpec string; malformed specs are rejected at
// parse time with the same error the HTTP 400 carries.
type Value struct {
	raw string
	set bool
}

// String renders the raw setting ("" when the flag was not given).
func (v *Value) String() string {
	if v == nil {
		return ""
	}
	return v.raw
}

// Set validates and stores one setting.
func (v *Value) Set(s string) error {
	if _, err := diversity.ParseSpec(s); err != nil {
		return err
	}
	v.raw, v.set = s, true
	return nil
}

// Given reports whether the flag was set explicitly (even to a spec
// that equals the defaults) — what decides local-wins precedence
// against a cluster grant.
func (v *Value) Given() bool { return v != nil && v.set }

// Raw returns the spec string as given ("" when unset) — what travels
// through serve JobSpecs, worker configs and cluster grants.
func (v *Value) Raw() string {
	if v == nil {
		return ""
	}
	return v.raw
}

// Spec returns the parsed spec, or diversity.DefaultSpec when unset.
// Set already validated, so parsing cannot fail here.
func (v *Value) Spec() diversity.Spec {
	s, err := diversity.ParseSpec(v.Raw())
	if err != nil {
		return diversity.DefaultSpec()
	}
	return s
}

// Register installs -diversity on the default flag set and returns the
// value to read after flag.Parse. The extra clause tailors the unset
// explanation to the binary (pass "" for the plain default).
func Register(unsetMeans string) *Value {
	return RegisterOn(flag.CommandLine, unsetMeans)
}

// RegisterOn is Register on an explicit FlagSet (tests, sub-commands).
func RegisterOn(fs *flag.FlagSet, unsetMeans string) *Value {
	if unsetMeans == "" {
		unsetMeans = "unset means defaults: admission off"
	}
	v := &Value{}
	fs.Var(v, "diversity",
		"DABS pool admission spec: key=value list over radius,buckets,min, or 'off' ("+unsetMeans+")")
	return v
}
