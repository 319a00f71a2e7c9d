package backend

import "fmt"

func init() {
	Register("race",
		"portfolio meta-backend: units split evenly across straight, sb and tabu (unit g runs member g mod 3)",
		newRace)
}

// raceMembers is the portfolio the race meta-backend splits units
// across, in assignment order.
var raceMembers = []string{"straight", "sb", "tabu"}

// raceBackend is the Diverse-ABS portfolio (arXiv 2207.03069): unit g
// runs member g mod len(members) for the whole run. No new
// coordination is needed — every member already publishes through the
// same solution buffer and ingest gate and adopts targets from the
// same GA pool, so the portfolio cross-pollinates by construction: a
// basin found by SB becomes a target straight search refines, and
// vice versa.
type raceBackend struct {
	members []Backend
}

func newRace(cfg Config) (Backend, error) {
	b := &raceBackend{}
	for _, name := range raceMembers {
		m, err := New(name, cfg)
		if err != nil {
			return nil, fmt.Errorf("backend: race member %q: %w", name, err)
		}
		b.members = append(b.members, m)
	}
	return b, nil
}

func (b *raceBackend) Name() string { return "race" }

// UnitName reports the member slot g runs, which is what the engine
// stamps on per-backend telemetry — so /metrics shows which portfolio
// member the improvements come from.
func (b *raceBackend) UnitName(g int) string { return raceMembers[g%len(raceMembers)] }

// NewUnit builds slot g's unit on its member: the member's own unit
// for the same slot, so seeds and window rungs match a single-backend
// run of that member.
func (b *raceBackend) NewUnit(g int) Unit { return b.members[g%len(b.members)].NewUnit(g) }
