// Package expt is the experiment harness: it regenerates every table and
// figure of the paper's evaluation (Figures 3–9 plus the §4.5 bandwidth
// numbers) over the workload suite, printing the same series the paper
// plots.  DESIGN.md §4 maps each figure to its driver here.
package expt

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"github.com/tracereuse/tlr/internal/core"
	"github.com/tracereuse/tlr/internal/cpu"
	"github.com/tracereuse/tlr/internal/rtm"
	"github.com/tracereuse/tlr/internal/service"
	"github.com/tracereuse/tlr/internal/workload"
)

// Config scales the harness.  The paper ran 50 M instructions per
// benchmark after a 25 M skip; the defaults here are CI-sized and the
// cmd/tlrexp flags raise them.
type Config struct {
	// Budget is the instruction budget per workload for the limit
	// studies (Figures 3–8).
	Budget uint64
	// Skip is the number of instructions executed before measurement
	// begins (the paper skipped 25 M).
	Skip uint64
	// Window is the finite instruction window (the paper uses 256).
	Window int
	// RTMBudget is the instruction budget per workload and configuration
	// for the realistic-RTM sweep (Figure 9), which is the most
	// simulation-heavy experiment.
	RTMBudget uint64
	// Workers bounds concurrent workload measurement (0 = GOMAXPROCS,
	// capped at 8 to bound the limit tables' memory).
	Workers int
}

// DefaultConfig returns the CI-scale configuration.
func DefaultConfig() Config {
	return Config{Budget: 300_000, Skip: 2_000, Window: 256, RTMBudget: 120_000}
}

// The latency sweeps of the paper's figures.
var (
	ilrLatencies = []float64{1, 2, 3, 4}
	tlrConstLats = []core.Latency{
		core.ConstLatency(1), core.ConstLatency(2), core.ConstLatency(3), core.ConstLatency(4),
	}
	tlrPropKs = []float64{1.0 / 32, 1.0 / 16, 1.0 / 8, 1.0 / 4, 1.0 / 2, 1}
)

// tlrWinVariants is the variant list used for the finite-window TLR study:
// first the four constant latencies (Fig. 8a), then the six proportional
// ones (Fig. 8b).
func tlrWinVariants() []core.Latency {
	out := append([]core.Latency(nil), tlrConstLats...)
	for _, k := range tlrPropKs {
		out = append(out, core.PropLatency(k))
	}
	return out
}

// Measurement holds every limit-study result for one workload; all the
// limit-study figures are projections of it.
type Measurement struct {
	Name     string
	Category workload.Category

	ILRInf core.ILRResult // infinite window, latencies 1..4
	ILRWin core.ILRResult // finite window, latencies 1..4
	TLRInf core.TLRResult // infinite window, constant latency 1
	TLRWin core.TLRResult // finite window, tlrWinVariants()

	// Extension studies (beyond the paper's figures; see the ablation
	// tables).
	TLRBlock    core.TLRResult // traces bounded to basic blocks (Huang & Lilja)
	TLRCap16    core.TLRResult // upper bound with traces chopped at 16
	TLRStrict16 core.TLRResult // strict trace-identity test, chopped at 16
	VPWin       core.VPResult  // last-value-prediction limit, finite window
}

// Shared batch service: every sweep of the harness fans out through one
// worker pool with one result cache, so re-running a figure (or running
// two figures over the same grid) reuses finished simulations.
var (
	sharedOnce sync.Once
	sharedSvc  *service.Service
)

func shared() *service.Service {
	sharedOnce.Do(func() {
		sharedSvc = service.New(service.Options{ResultCache: 8192})
	})
	return sharedSvc
}

// Measure runs the limit studies for every workload through the shared
// batch service.  Each workload's dynamic stream is produced once and
// fanned out to all studies, with a single shared reusability
// classification (the paper's engines all consult the same infinite
// table).
func Measure(cfg Config) ([]*Measurement, error) {
	return MeasureWith(shared(), cfg)
}

// MeasureWith is Measure on an explicit service (tests and benchmarks
// use a fresh one to control cache state).  Cached measurements are
// shared pointers: callers must treat them as read-only.
func MeasureWith(svc *service.Service, cfg Config) ([]*Measurement, error) {
	suite := workload.All()
	workers := cfg.Workers
	if workers <= 0 {
		workers = min(runtime.GOMAXPROCS(0), 8)
	}
	jobs := make([]service.Job, len(suite))
	for i, w := range suite {
		jobs[i] = service.Job{
			ID:  w.Name,
			Key: fmt.Sprintf("measurement|%s|%d|%d|%d", w.Name, cfg.Budget, cfg.Skip, cfg.Window),
			Run: func(ctx context.Context) (any, error) { return measureOne(ctx, cfg, w) },
		}
	}
	res, err := svc.Submit(context.Background(), jobs, workers).Wait()
	if err != nil {
		return nil, err
	}
	out := make([]*Measurement, len(suite))
	for i, r := range res {
		out[i] = r.Value.(*Measurement)
	}
	return out, nil
}

func measureOne(ctx context.Context, cfg Config, w *workload.Workload) (*Measurement, error) {
	prog, err := w.Program()
	if err != nil {
		return nil, err
	}
	c := cpu.New(prog)
	if cfg.Skip > 0 {
		if _, err := c.RunContext(ctx, cfg.Skip, nil); err != nil {
			return nil, fmt.Errorf("%s: skip: %w", w.Name, err)
		}
	}

	// Every study is a lane group of one set: one classification, one
	// clock and one run buffer for the eight of them.
	one := []core.Latency{core.ConstLatency(1)}
	set := core.NewStudySet()
	ilrInf := set.ILR(core.ILRConfig{Window: 0, Latencies: ilrLatencies})
	ilrWin := set.ILR(core.ILRConfig{Window: cfg.Window, Latencies: ilrLatencies})
	tlrInf := set.TLR(core.TLRConfig{Window: 0, Variants: one})
	tlrWin := set.TLR(core.TLRConfig{Window: cfg.Window, Variants: tlrWinVariants()})
	tlrBlk := set.TLR(core.TLRConfig{Window: cfg.Window, Variants: one, BlockBounded: true})
	tlrCap := set.TLR(core.TLRConfig{Window: cfg.Window, Variants: one, MaxRunLen: 16})
	tlrStr := set.TLR(core.TLRConfig{Window: cfg.Window, Variants: one, MaxRunLen: 16, Strict: true})
	vpWin := set.VP(core.VPConfig{Window: cfg.Window})

	n, err := c.RunContext(ctx, cfg.Budget, set.Consume)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.Name, err)
	}
	if n < cfg.Budget {
		return nil, fmt.Errorf("%s: halted after %d of %d instructions", w.Name, n, cfg.Budget)
	}
	set.Finish()

	return &Measurement{
		Name:        w.Name,
		Category:    w.Category,
		ILRInf:      ilrInf.Result(),
		ILRWin:      ilrWin.Result(),
		TLRInf:      tlrInf.Result(),
		TLRWin:      tlrWin.Result(),
		TLRBlock:    tlrBlk.Result(),
		TLRCap16:    tlrCap.Result(),
		TLRStrict16: tlrStr.Result(),
		VPWin:       vpWin.Result(),
	}, nil
}

// RTMCell is one point of the Figure 9 sweep.
type RTMCell struct {
	Heuristic string
	Geometry  rtm.Geometry
	// Arithmetic means over the suite, as the paper averages percentages.
	ReusedFraction float64
	AvgTraceSize   float64
}

// RTMPoint is one x-axis point of the Figure 9 sweep: a collection
// heuristic plus its chunk size for I(n) EXP.
type RTMPoint struct {
	Label     string
	Heuristic rtm.Heuristic
	N         int
}

// RTMHeuristics returns Figure 9's x-axis: ILR NE, ILR EXP, I(1..8) EXP.
func RTMHeuristics() []RTMPoint {
	hs := []RTMPoint{
		{"ILR NE", rtm.ILRNE, 0},
		{"ILR EXP", rtm.ILREXP, 0},
	}
	for n := 1; n <= 8; n++ {
		hs = append(hs, RTMPoint{fmt.Sprintf("I%d EXP", n), rtm.IEXP, n})
	}
	return hs
}

// RTMGeometries returns Figure 9's series: the four RTM capacities.
func RTMGeometries() []rtm.Geometry {
	return []rtm.Geometry{rtm.Geometry512, rtm.Geometry4K, rtm.Geometry32K, rtm.Geometry256K}
}

// MeasureRTM runs the realistic-RTM sweep of Figure 9 through the shared
// batch service: every collection heuristic crossed with every RTM
// capacity, averaged over the suite.
func MeasureRTM(cfg Config) ([]RTMCell, error) {
	return MeasureRTMWith(shared(), cfg)
}

// MeasureRTMWith is MeasureRTM on an explicit service.  The grid's
// heuristic x geometry x workload cells are independent simulations, so
// the whole sweep fans out across the service's worker pool; a repeated
// sweep at the same configuration is answered from the result cache.
func MeasureRTMWith(svc *service.Service, cfg Config) ([]RTMCell, error) {
	res, err := measureRTMGrid(svc, cfg)
	if err != nil {
		return nil, err
	}
	suite := workload.All()
	var cells []RTMCell
	k := 0
	for _, h := range RTMHeuristics() {
		for _, g := range RTMGeometries() {
			fracs := make([]float64, len(suite))
			sizes := make([]float64, len(suite))
			for wi := range suite {
				fracs[wi] = res[k].ReusedFraction()
				sizes[wi] = res[k].AvgReusedLen()
				k++
			}
			cells = append(cells, RTMCell{
				Heuristic:      h.Label,
				Geometry:       g,
				ReusedFraction: mean(fracs),
				AvgTraceSize:   mean(sizes),
			})
		}
	}
	return cells, nil
}

// measureRTMGrid runs every heuristic x geometry x workload cell of the
// Figure-9 sweep and returns their results in that nesting order.
func measureRTMGrid(svc *service.Service, cfg Config) ([]rtm.Result, error) {
	suite := workload.All()
	var jobs []service.Job
	for _, h := range RTMHeuristics() {
		for _, g := range RTMGeometries() {
			for _, w := range suite {
				prog, err := w.Program()
				if err != nil {
					return nil, err
				}
				jobs = append(jobs, service.RTMJob(
					fmt.Sprintf("%s/%s/%v", w.Name, h.Label, g),
					service.ProgSource(w.Name, prog), service.RTMParams{
						Config: rtm.Config{Geometry: g, Heuristic: h.Heuristic, N: h.N},
						Skip:   cfg.Skip,
						Budget: cfg.RTMBudget,
					}))
			}
		}
	}
	res, err := svc.Submit(context.Background(), jobs, cfg.Workers).Wait()
	if err != nil {
		return nil, err
	}
	out := make([]rtm.Result, len(res))
	for i, r := range res {
		out[i] = r.Value.(rtm.Result)
	}
	return out, nil
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	if len(xs) == 0 {
		return 0
	}
	return s / float64(len(xs))
}
