// Package diversity implements the pool-diversity control loop of
// Diverse Adaptive Bulk Search (DABS, arXiv 2207.03069) on top of the
// ABS substrate: a Hamming-distance-aware pool admission policy
// (Policy) that keeps the host's solution pool spread across the
// landscape instead of merely elite — near-duplicates are rejected
// unless they strictly improve on the residents they crowd, and
// eviction from a full pool preserves a minimum occupancy per distance
// bucket.
//
// The package sits below core (which installs the policy on the
// engine's GA pool); it depends only on ga and bitvec.
package diversity

import "fmt"

// Spec bundles every diversity-control knob; core.Tuning carries it
// through options, serve jobs and cluster grants, and core.ParseTuning
// reads its text keys (radius, buckets, min). The zero value means
// "defaults" (see DefaultSpec).
type Spec struct {
	// Radius is the pool policy's Hamming near-duplicate radius: a
	// candidate within Radius of any resident is admitted only when it
	// is strictly better than every such resident (and then replaces
	// them all). Zero disables the admission policy entirely — the
	// pool runs the paper's plain elitism.
	Radius int

	// Buckets is how many distance buckets the pool is partitioned
	// into, keyed by Hamming distance to the incumbent best entry.
	// Zero means 8.
	Buckets int

	// MinPerBucket is the occupancy floor eviction must preserve: a
	// full-pool eviction never drops a bucket below this count unless
	// the candidate itself lands in that bucket. Zero means 1.
	MinPerBucket int
}

// DefaultSpec is the default: admission policy off (Radius 0 —
// diversity admission is opt-in per job) with 8 distance buckets of
// at least one entry each, used once a radius is set.
func DefaultSpec() Spec {
	return Spec{
		Radius:       0,
		Buckets:      8,
		MinPerBucket: 1,
	}
}

// Normalize fills defaulted zero fields (Buckets, MinPerBucket) and
// validates the result. Radius is taken as-is: zero is a meaningful
// setting.
func (s Spec) Normalize() (Spec, error) {
	d := DefaultSpec()
	if s.Buckets == 0 {
		s.Buckets = d.Buckets
	}
	if s.MinPerBucket == 0 {
		s.MinPerBucket = d.MinPerBucket
	}
	if err := s.Validate(); err != nil {
		return Spec{}, err
	}
	return s, nil
}

// Validate reports configuration errors.
func (s Spec) Validate() error {
	if s.Radius < 0 {
		return fmt.Errorf("diversity: radius %d must be >= 0", s.Radius)
	}
	if s.Buckets < 1 {
		return fmt.Errorf("diversity: buckets %d must be >= 1", s.Buckets)
	}
	if s.MinPerBucket < 0 {
		return fmt.Errorf("diversity: min-per-bucket %d must be >= 0", s.MinPerBucket)
	}
	return nil
}
