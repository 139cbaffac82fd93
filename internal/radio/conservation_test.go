package radio_test

import (
	"testing"

	"pds/internal/fault"
	"pds/internal/radio"
	"pds/internal/sim"
)

// TestFrameConservation checks that every finished frame reaches a
// verdict at every receiver: summed over transmissions, the attached
// radios within range of the sender at finish time equal the frames
// delivered (a duplicate counts once), collided, lost and corrupted.
// It runs the churn scenario under the BaseLoss draw and under a fault
// injector whose plan mixes burst loss, corruption and duplication.
func TestFrameConservation(t *testing.T) {
	channels := []struct {
		name  string
		setup func(*sim.Engine, *radio.Medium)
	}{
		{"base-loss", nil},
		{"fault-injector", func(eng *sim.Engine, m *radio.Medium) {
			plan, err := fault.ParsePlan("burst@0s:0.6,5ms,5ms;corrupt@0s:0.1;dup@0s:0.1")
			if err != nil {
				t.Fatal(err)
			}
			in := fault.NewInjector(eng, 11, nil)
			in.SetBaseLoss(m.Config().BaseLoss)
			in.Install(plan)
			m.Channel = in
		}},
	}
	for _, ch := range channels {
		t.Run(ch.name, func(t *testing.T) {
			var total radio.Stats
			for seed := int64(1); seed <= 4; seed++ {
				st, receivers, err := radio.RunChurn(seed, ch.setup)
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				verdicts := st.Delivered - st.DupFrames + st.Collisions + st.RandomLosses + st.CorruptFrames
				if verdicts != receivers {
					t.Fatalf("seed %d: %d in-range receivers at finish, %d verdicts (%+v)", seed, receivers, verdicts, st)
				}
				total.Delivered += st.Delivered
				total.Collisions += st.Collisions
				total.RandomLosses += st.RandomLosses
				total.CorruptFrames += st.CorruptFrames
				total.DupFrames += st.DupFrames
			}
			// Every fate the channel can produce must actually occur, or
			// the sum above proves less than it claims.
			if total.Delivered == 0 || total.Collisions == 0 || total.RandomLosses == 0 {
				t.Fatalf("degenerate run: %+v", total)
			}
			if ch.setup != nil && (total.CorruptFrames == 0 || total.DupFrames == 0) {
				t.Fatalf("fault plan produced no corruption or duplication: %+v", total)
			}
		})
	}
}
