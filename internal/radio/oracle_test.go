package radio

import (
	"math/rand"
	"testing"
	"time"

	"pds/internal/sim"
	"pds/internal/wire"
)

// The oracle below is the record-ownership definition the live-record
// scans replace: visit every attached radio, take the records it owns,
// and apply the geometric checks to the transmitter's current position.
// It scans all radios, so no index can hide a transmitter from it.

// ownRecords returns the records tx owns, oldest first.
func ownRecords(m *Medium, tx *Radio) []*txRecord {
	var out []*txRecord
	for _, rec := range m.txOrder {
		if rec.owner == tx {
			out = append(out, rec)
		}
	}
	return out
}

func oracleBusyUntil(m *Medium, r *Radio) time.Duration {
	now := m.eng.Now()
	var until time.Duration
	for _, tx := range m.radios {
		if tx == nil || tx.pos.Dist(r.pos) > m.senseRange() {
			continue
		}
		for _, rec := range ownRecords(m, tx) {
			if rec.end > now && rec.end > until {
				until = rec.end
			}
		}
	}
	return until
}

func oracleBusyFor(m *Medium, r *Radio) bool {
	now := m.eng.Now()
	for _, tx := range m.radios {
		if tx == nil || tx.pos.Dist(r.pos) > m.senseRange() {
			continue
		}
		for _, rec := range ownRecords(m, tx) {
			if rec.end > now && now-rec.start >= m.cfg.SenseLag {
				return true
			}
		}
	}
	return false
}

func oracleCollided(m *Medium, rec *txRecord, rx, sender *Radio) bool {
	dSig := sender.pos.Dist(rx.pos)
	for _, tx := range m.radios {
		if tx == nil {
			continue
		}
		dInt := tx.pos.Dist(rx.pos)
		for _, o := range ownRecords(m, tx) {
			if o == rec || o.end <= rec.start || o.start >= rec.end {
				continue
			}
			if tx == rx {
				return true
			}
			if dInt > m.senseRange() {
				continue
			}
			if m.cfg.CaptureMargin > 0 && dInt >= dSig*m.cfg.CaptureMargin {
				continue
			}
			return true
		}
	}
	return false
}

// oracleCoverage counts the situations the oracle test must reach for
// its agreement to mean something.
type oracleCoverage struct {
	goneInFlight int // checks made while a detached sender's record was live
	sameSlot     int // checks made while two live records shared a start
	senseLag     int // busyFor false although an audible record was live
	busy, idle   int // busyFor verdicts
	hit, miss    int // collided verdicts
}

// TestCollisionAndSenseMatchOracle property-tests collided, busyFor and
// busyUntil against the all-radios oracle. Each seed draws a layout
// spanning several grid cells, a tiny contention window so backoffs land
// in the same slot, and random capture; mobility moves nodes, and nodes
// detach (and some reattach) while their frame is on the air. After
// every engine event, every attached radio's sense verdicts and every
// live record's collision verdict at every attached radio must equal
// the oracle's.
func TestCollisionAndSenseMatchOracle(t *testing.T) {
	var cov oracleCoverage
	for seed := int64(1); seed <= 24; seed++ {
		checkOracleSeed(t, seed, &cov)
	}
	t.Logf("coverage: %+v", cov)
	if cov.goneInFlight == 0 || cov.sameSlot == 0 || cov.senseLag == 0 ||
		cov.busy == 0 || cov.idle == 0 || cov.hit == 0 || cov.miss == 0 {
		t.Fatalf("scenarios too tame to exercise every branch: %+v", cov)
	}
}

func checkOracleSeed(t *testing.T, seed int64, cov *oracleCoverage) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	eng := sim.NewEngine(seed)
	cfg := DefaultConfig()
	cfg.CWSlots = 1 + rng.Intn(3)
	if rng.Intn(3) == 0 {
		cfg.CaptureMargin = 0
	}
	m := NewMedium(eng, cfg)
	side := 150 + rng.Float64()*250
	pos := func() Pos { return Pos{X: rng.Float64()*side - side/3, Y: rng.Float64()*side - side/3} }
	n := 10 + rng.Intn(30)
	for i := 1; i <= n; i++ {
		m.Attach(wire.NodeID(i), pos(), nil)
	}
	// Bursts at a handful of shared instants so several senders contend
	// for the same slots.
	for k := 0; k < 3*n; k++ {
		id := wire.NodeID(1 + rng.Intn(n))
		at := time.Duration(rng.Intn(8)) * 5 * time.Millisecond
		payload := k
		eng.Schedule(at, func() {
			if slot, ok := m.index[id]; ok {
				m.radios[slot].Send(testMsg(id, payload))
			}
		})
	}

	for steps := 0; steps < 4000 && eng.Step(); steps++ {
		switch rng.Intn(40) {
		case 0: // mobility
			m.SetPosition(wire.NodeID(1+rng.Intn(n)), pos())
		case 1: // detach a sender mid-air, sometimes reattaching its id
			for _, r := range m.radios {
				if r != nil && r.transmitting {
					m.Detach(r.id)
					if rng.Intn(2) == 0 {
						m.Attach(r.id, pos(), nil)
					}
					break
				}
			}
		}
		checkOracleState(t, seed, m, cov)
	}
}

func checkOracleState(t *testing.T, seed int64, m *Medium, cov *oracleCoverage) {
	t.Helper()
	now := m.eng.Now()
	starts := map[time.Duration]int{}
	gone := false
	for _, rec := range m.txOrder {
		if rec.end > now {
			starts[rec.start]++
			gone = gone || rec.owner.gone
		}
	}
	for _, c := range starts {
		if c > 1 {
			cov.sameSlot++
			break
		}
	}
	if gone {
		cov.goneInFlight++
	}
	for _, r := range m.radios {
		if r == nil {
			continue
		}
		busy := m.busyFor(r)
		if want := oracleBusyFor(m, r); busy != want {
			t.Fatalf("seed %d at %v: busyFor(%d) = %v, oracle %v", seed, now, r.id, busy, want)
		}
		until := m.busyUntil(r)
		if want := oracleBusyUntil(m, r); until != want {
			t.Fatalf("seed %d at %v: busyUntil(%d) = %v, oracle %v", seed, now, r.id, until, want)
		}
		switch {
		case busy:
			cov.busy++
		case until > now:
			cov.senseLag++ // live and audible, but younger than SenseLag
			cov.idle++
		default:
			cov.idle++
		}
	}
	for _, rec := range m.txOrder {
		sender := rec.owner
		if sender.gone {
			continue // finishTransmission delivers nothing for it
		}
		overlap := m.overlapping(rec)
		for _, rx := range m.radios {
			if rx == nil || rx == sender {
				continue
			}
			got := m.collided(overlap, rx, sender)
			if want := oracleCollided(m, rec, rx, sender); got != want {
				t.Fatalf("seed %d at %v: collided(%d->%d, [%v,%v]) = %v, oracle %v",
					seed, now, sender.id, rx.id, rec.start, rec.end, got, want)
			}
			if got {
				cov.hit++
			} else {
				cov.miss++
			}
		}
	}
}
