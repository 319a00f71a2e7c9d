package core

import (
	"fmt"
	"strconv"
	"strings"

	"abs/internal/backend"
	"abs/internal/diversity"
)

// Storage selects the incremental-engine representation used by the
// search units.
type Storage int

const (
	// StorageAuto chooses per instance by density.
	StorageAuto Storage = iota
	// StorageDense always uses the paper's dense kernel (O(n) flips,
	// n evaluated solutions per flip).
	StorageDense
	// StorageSparse always uses the adjacency engine (O(deg) flips).
	StorageSparse
)

func (s Storage) String() string {
	switch s {
	case StorageAuto:
		return "auto"
	case StorageDense:
		return "dense"
	case StorageSparse:
		return "sparse"
	default:
		return fmt.Sprintf("Storage(%d)", int(s))
	}
}

// Backend names a registered solver backend (see internal/backend):
// the per-block search program raced behind the shared ABS pool
// protocol. The zero value (BackendAuto) defers the choice — a
// cluster worker takes the coordinator's registration grant, and an
// engine resolves it to BackendStraight, the paper's single-algorithm
// behaviour.
type Backend string

const (
	// BackendAuto defers the backend choice (grant, then straight).
	BackendAuto Backend = ""
	// BackendStraight is the paper's §3.2 program: straight search to
	// the pool target, then bulk local search on the offset-window
	// ladder.
	BackendStraight Backend = "straight"
	// BackendSB runs simulated bifurcation dynamics on float spins
	// over the Ising form of the instance.
	BackendSB Backend = "sb"
	// BackendTabu runs diversified multi-start tabu search.
	BackendTabu Backend = "tabu"
	// BackendRace splits the fleet's units across straight, sb and
	// tabu, racing the portfolio through the one shared pool.
	BackendRace Backend = "race"
)

func (b Backend) String() string {
	if b == BackendAuto {
		return "auto"
	}
	return string(b)
}

// ErrUnknownBackend is the typed sentinel behind backend-validation
// failures (ParseTuning, Tuning.Validate, Options.Validate): the named
// backend has no registered factory. Match with errors.Is.
var ErrUnknownBackend = backend.ErrUnknown

// Backends lists the registered solver backends with their one-line
// descriptions, sorted by name — what GET /v1/backends and CLI usage
// strings render.
func Backends() []backend.Info { return backend.List() }

// Tuning is the three choices layered on the paper's one device
// program: the engine representation (Storage), the solver program
// every unit runs (Backend) and the DABS pool admission spec (arXiv
// 2207.03069; Diversity). A zero field is unset. Over fills unset
// fields from a base — a worker's local Tuning over the coordinator's
// grant, a job's over the service defaults — and the engine resolves
// whatever is still unset: storage by density, the straight backend,
// admission off.
//
// The text form (ParseTuning, String) is a comma-separated key=value
// list over five keys: storage, backend, radius, buckets and min. It
// is what the -tuning flag, the serve job body, the job journal and
// the cluster registration grant carry.
type Tuning struct {
	Storage Storage
	Backend Backend
	// Diversity is unset when zero. Naming any of radius, buckets or
	// min in the text form sets the whole spec, starting from
	// diversity.DefaultSpec, so "radius=0" is an explicit opt-out that
	// wins over a grant's admission policy.
	Diversity diversity.Spec
}

// tuningKeys lists the text form's keys for error messages.
const tuningKeys = "storage, backend, radius, buckets, min"

// TuningUsage is the -tuning flag's usage text: the five keys with
// their values, then what an unset key means in the calling binary.
func TuningUsage(unset string) string {
	return "key=value list: storage=auto|dense|sparse, backend=" + strings.Join(backend.Names(), "|") +
		", and the DABS admission keys radius, buckets, min (radius=0 is off); unset keys " + unset
}

// ParseTuning parses the text form:
//
//	backend=race,radius=4
//	storage=sparse,radius=16,buckets=12,min=2
//
// The empty string is the zero (all unset) Tuning; "auto" leaves
// storage or backend unset. Unknown keys, malformed values, an
// unregistered backend (ErrUnknownBackend, listing the registry) and
// out-of-range admission values are errors that name the key: a
// tuning travels through flags, HTTP, the job journal and cluster
// grants, where a typo silently ignored would be a silent behaviour
// change.
func ParseTuning(text string) (Tuning, error) {
	var t Tuning
	for _, part := range strings.Split(text, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		key, val, ok := strings.Cut(part, "=")
		if !ok {
			return Tuning{}, fmt.Errorf("core: bad tuning element %q (want key=value)", part)
		}
		key, val = strings.TrimSpace(key), strings.TrimSpace(val)
		switch key {
		case "storage":
			switch val {
			case "auto":
				t.Storage = StorageAuto
			case "dense":
				t.Storage = StorageDense
			case "sparse":
				t.Storage = StorageSparse
			default:
				return Tuning{}, fmt.Errorf("core: unknown storage %q (want auto, dense or sparse)", val)
			}
		case "backend":
			t.Backend = BackendAuto
			if val != "auto" {
				if !backend.Known(val) {
					return Tuning{}, unknownBackend(val)
				}
				t.Backend = Backend(val)
			}
		case "radius", "buckets", "min":
			if t.Diversity == (diversity.Spec{}) {
				t.Diversity = diversity.DefaultSpec()
			}
			n, err := strconv.Atoi(val)
			if err != nil {
				return Tuning{}, fmt.Errorf("core: bad value for %q: %v", key, err)
			}
			switch key {
			case "radius":
				t.Diversity.Radius = n
			case "buckets":
				t.Diversity.Buckets = n
			default:
				t.Diversity.MinPerBucket = n
			}
		default:
			return Tuning{}, fmt.Errorf("core: unknown tuning key %q (known: %s)", key, tuningKeys)
		}
	}
	// Validate, not Normalize: in text, buckets=0 is an error rather
	// than "default".
	if t.Diversity != (diversity.Spec{}) {
		if err := t.Diversity.Validate(); err != nil {
			return Tuning{}, err
		}
	}
	return t, nil
}

// String renders the set fields in ParseTuning's form, so the zero
// Tuning is "" and, for every valid Tuning, ParseTuning(t.String())
// gives back the same settings. A zero Buckets (the default in Go)
// renders as its default value.
func (t Tuning) String() string {
	var parts []string
	if t.Storage != StorageAuto {
		parts = append(parts, "storage="+t.Storage.String())
	}
	if t.Backend != BackendAuto {
		parts = append(parts, "backend="+string(t.Backend))
	}
	if d := t.Diversity; d != (diversity.Spec{}) {
		if d.Buckets == 0 {
			d.Buckets = diversity.DefaultSpec().Buckets
		}
		parts = append(parts, fmt.Sprintf("radius=%d,buckets=%d,min=%d", d.Radius, d.Buckets, d.MinPerBucket))
	}
	return strings.Join(parts, ",")
}

// Set parses text into t, making *Tuning a flag.Value: each binary's
// -tuning flag is flag.Var(&t, "tuning", TuningUsage(...)).
func (t *Tuning) Set(text string) error {
	v, err := ParseTuning(text)
	if err != nil {
		return err
	}
	*t = v
	return nil
}

// Over returns t with every unset field taken from base: the one
// precedence rule, explicit over inherited. A worker applies its local
// Tuning over the coordinator's grant, and a serve job its own over
// the service defaults.
func (t Tuning) Over(base Tuning) Tuning {
	if t.Storage == StorageAuto {
		t.Storage = base.Storage
	}
	if t.Backend == BackendAuto {
		t.Backend = base.Backend
	}
	if t.Diversity == (diversity.Spec{}) {
		t.Diversity = base.Diversity
	}
	return t
}

// Validate reports whether every set field is usable: a known storage,
// a registered backend (ErrUnknownBackend otherwise) and a diversity
// spec that normalizes.
func (t Tuning) Validate() error {
	if t.Storage < StorageAuto || t.Storage > StorageSparse {
		return fmt.Errorf("core: unknown storage %v", t.Storage)
	}
	if t.Backend != BackendAuto && !backend.Known(string(t.Backend)) {
		return unknownBackend(string(t.Backend))
	}
	_, err := t.Diversity.Normalize()
	return err
}

func unknownBackend(name string) error {
	return fmt.Errorf("core: %w %q (registered: %s)", ErrUnknownBackend, name, strings.Join(backend.Names(), ", "))
}
