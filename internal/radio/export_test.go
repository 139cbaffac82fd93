package radio

import "pds/internal/sim"

// RunChurn runs the churn scenario (see runChurnScenario) for the
// external test package. It returns the final stats, the brute-force
// finish-time receiver sum and the first audit failure.
func RunChurn(seed int64, setup func(*sim.Engine, *Medium)) (Stats, uint64, error) {
	res := runChurnScenario(seed, setup)
	return res.stats, res.receivers, res.err
}
