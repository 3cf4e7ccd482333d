package stream

import (
	"netplace/internal/workload"
)

// Estimator maintains per-object, per-node read/write frequency estimates
// over a request stream, refreshed at epoch boundaries. Two modes share
// one interface: a sliding window sums the last Window epochs' integer
// counts exactly (so estimates that have seen the true workload reproduce
// it bit-for-bit), and an EWMA (Alpha > 0) forgets exponentially — cheaper
// in memory and quicker to track drift, at the price of never being exact.
//
// Estimates are exposed as per-event rates; the engine scales them by its
// Horizon and quantises them into solver frequency tables (see
// core.QuantiseDemand).
type Estimator struct {
	alpha  float64
	window int

	// open-epoch counts, [object][node]
	curR, curW [][]int64

	// sliding window: ring of closed-epoch count matrices and their sizes,
	// plus running sums so estimates update in O(objects · nodes).
	ringR, ringW [][][]int64
	ringEvents   []int
	ringPos      int
	ringLen      int
	sumR, sumW   [][]int64
	sumEvents    int

	// EWMA state: per-epoch count averages and the average epoch size.
	ewmaR, ewmaW [][]float64
	ewmaEvents   float64
	ewmaInit     bool

	// exposed rates, recomputed at every epoch close
	rateR, rateW [][]float64
	epochs       int
}

// NewEstimator builds an estimator for nobj objects over an n-node
// network. cfg must already carry resolved defaults.
func NewEstimator(nobj, n int, cfg Config) *Estimator {
	e := &Estimator{alpha: cfg.Alpha, window: cfg.Window}
	mk64 := func() [][]int64 {
		m := make([][]int64, nobj)
		for i := range m {
			m[i] = make([]int64, n)
		}
		return m
	}
	mkf := func() [][]float64 {
		m := make([][]float64, nobj)
		for i := range m {
			m[i] = make([]float64, n)
		}
		return m
	}
	e.curR, e.curW = mk64(), mk64()
	e.rateR, e.rateW = mkf(), mkf()
	if e.alpha > 0 {
		e.ewmaR, e.ewmaW = mkf(), mkf()
	} else {
		e.sumR, e.sumW = mk64(), mk64()
		e.ringR = make([][][]int64, e.window)
		e.ringW = make([][][]int64, e.window)
		e.ringEvents = make([]int, e.window)
		for k := 0; k < e.window; k++ {
			e.ringR[k], e.ringW[k] = mk64(), mk64()
		}
	}
	return e
}

// Observe counts one event into the open epoch.
func (e *Estimator) Observe(r workload.Request) {
	if r.Write {
		e.curW[r.Obj][r.V]++
	} else {
		e.curR[r.Obj][r.V]++
	}
}

// WindowFull reports whether the estimator has seen enough epochs to fill
// its configured memory (Window epochs for the sliding window; one
// effective window, ~1/Alpha epochs, for the EWMA).
func (e *Estimator) WindowFull() bool {
	if e.alpha > 0 {
		return float64(e.epochs)*e.alpha >= 1
	}
	return e.epochs >= e.window
}

// CloseEpoch folds the open epoch (events events long) into the estimate
// and resets the epoch counters. Rates are refreshed.
func (e *Estimator) CloseEpoch(events int) {
	e.epochs++
	if e.alpha > 0 {
		e.closeEWMA(events)
	} else {
		e.closeWindow(events)
	}
	for i := range e.curR {
		zero64(e.curR[i])
		zero64(e.curW[i])
	}
}

// closeWindow pushes the epoch into the ring, maintaining exact integer
// window sums.
func (e *Estimator) closeWindow(events int) {
	slotR, slotW := e.ringR[e.ringPos], e.ringW[e.ringPos]
	if e.ringLen == e.window {
		// evict the slot leaving the window
		for i := range slotR {
			for v := range slotR[i] {
				e.sumR[i][v] -= slotR[i][v]
				e.sumW[i][v] -= slotW[i][v]
			}
		}
		e.sumEvents -= e.ringEvents[e.ringPos]
	} else {
		e.ringLen++
	}
	for i := range e.curR {
		copy(slotR[i], e.curR[i])
		copy(slotW[i], e.curW[i])
		for v := range e.curR[i] {
			e.sumR[i][v] += e.curR[i][v]
			e.sumW[i][v] += e.curW[i][v]
		}
	}
	e.ringEvents[e.ringPos] = events
	e.sumEvents += events
	e.ringPos = (e.ringPos + 1) % e.window
	inv := 0.0
	if e.sumEvents > 0 {
		inv = 1 / float64(e.sumEvents)
	}
	for i := range e.sumR {
		for v := range e.sumR[i] {
			e.rateR[i][v] = float64(e.sumR[i][v]) * inv
			e.rateW[i][v] = float64(e.sumW[i][v]) * inv
		}
	}
}

// closeEWMA folds the epoch into the exponential averages.
func (e *Estimator) closeEWMA(events int) {
	a := e.alpha
	if !e.ewmaInit {
		// First epoch seeds the average directly, so early estimates are
		// not biased toward the zero initial state.
		a = 1
		e.ewmaInit = true
	}
	e.ewmaEvents = a*float64(events) + (1-a)*e.ewmaEvents
	inv := 0.0
	if e.ewmaEvents > 0 {
		inv = 1 / e.ewmaEvents
	}
	for i := range e.ewmaR {
		for v := range e.ewmaR[i] {
			e.ewmaR[i][v] = a*float64(e.curR[i][v]) + (1-a)*e.ewmaR[i][v]
			e.ewmaW[i][v] = a*float64(e.curW[i][v]) + (1-a)*e.ewmaW[i][v]
			e.rateR[i][v] = e.ewmaR[i][v] * inv
			e.rateW[i][v] = e.ewmaW[i][v] * inv
		}
	}
}

// ReadRate returns object i's estimated per-event read rate per node. The
// slice is owned by the estimator and refreshed at every epoch close.
func (e *Estimator) ReadRate(i int) []float64 { return e.rateR[i] }

// WriteRate returns object i's estimated per-event write rate per node.
func (e *Estimator) WriteRate(i int) []float64 { return e.rateW[i] }

func zero64(s []int64) {
	for i := range s {
		s[i] = 0
	}
}
