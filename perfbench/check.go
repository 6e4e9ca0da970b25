package main

import (
	"errors"
	"fmt"
	"math"

	"prioritystar/internal/balance"
	"prioritystar/internal/core"
	"prioritystar/internal/sweep"
	"prioritystar/internal/torus"
)

var errNoOps = errors.New("no op completed in the measured phase")

// Thresholds of the paper's headline claims, as checked on figures-quick.
const (
	// utilTol bounds |per-dimension utilization - rho| for balanced
	// schemes (Eq. 2 / Eq. 4 equalize the dimension loads).
	utilTol = 0.05
	// pinnedUtil is the max-dimension utilization above which a separately
	// balanced scheme counts as pinned at saturation.
	pinnedUtil = 0.97
	// unicastBound is the factor of D_ave prioritized unicast delay stays
	// within on the heterogeneous workload (Section 4: O(d), not O(N)).
	unicastBound = 1.5
)

// series returns the named scheme's curve.
func series(res *sweep.Result, name string) (*sweep.Series, error) {
	for i := range res.Series {
		if res.Series[i].Scheme.Name == name {
			return &res.Series[i], nil
		}
	}
	return nil, fmt.Errorf("%s: no %s series", res.Exp.ID, name)
}

// pointAt returns the series' point at rho.
func pointAt(s *sweep.Series, rho float64) (*sweep.Point, error) {
	for i := range s.Points {
		if math.Abs(s.Points[i].Rho-rho) < 1e-9 {
			return &s.Points[i], nil
		}
	}
	return nil, fmt.Errorf("%s: no point at rho %g", s.Scheme.Name, rho)
}

// checkFigures checks the paper's headline claims on the figure registry's
// results. It returns one error per violated claim; an experiment missing
// from results is itself a violation.
func checkFigures(results map[string]*sweep.Result) []error {
	var errs []error
	need := func(id string) *sweep.Result {
		res, ok := results[id]
		if !ok {
			errs = append(errs, fmt.Errorf("%s: no result", id))
		}
		return res
	}

	// Figs. 2-7: priority STAR beats FCFS-direct on reception delay at 0.8.
	for _, id := range []string{"fig2+5", "fig3+6", "fig4+7"} {
		res := need(id)
		if res == nil {
			continue
		}
		if err := starBeatsFCFS(res, 0.8); err != nil {
			errs = append(errs, err)
		}
	}

	// Eq. 2 / Eq. 4: jointly balanced schemes load every dimension at rho.
	for _, id := range sweep.FigureIDs() {
		if res := results[id]; res != nil {
			errs = append(errs, balancedUtil(res)...)
		}
	}

	// Section 1/4: on 4x4x8 the joint vector stays stable through 0.95,
	// while separate balancing saturates its long dimension.
	if res := need("fig8-balance"); res != nil {
		errs = append(errs, jointVsSeparate(res)...)
	}

	// Section 4: prioritized unicast stays within a constant of D_ave.
	if res := need("fig8-hetero-delay"); res != nil {
		errs = append(errs, unicastWithinDave(res)...)
	}
	return errs
}

func starBeatsFCFS(res *sweep.Result, rho float64) error {
	star, err := series(res, sweep.PrioritySTARSpec.Name)
	if err != nil {
		return err
	}
	fcfs, err := series(res, sweep.FCFSDirectSpec.Name)
	if err != nil {
		return err
	}
	ps, err := pointAt(star, rho)
	if err != nil {
		return err
	}
	pf, err := pointAt(fcfs, rho)
	if err != nil {
		return err
	}
	s, f := ps.Value(sweep.MetricReception), pf.Value(sweep.MetricReception)
	if !(s < f) {
		return fmt.Errorf("%s rho %g: priority-STAR reception delay %.4f not below FCFS-direct %.4f", res.Exp.ID, rho, s, f)
	}
	return nil
}

// balancedUtil checks every stable point of every jointly balanced series
// (balanced rotation, Eq. 4 including unicast load, exact distances).
func balancedUtil(res *sweep.Result) []error {
	if res.Exp.Model != balance.ExactDistance {
		return nil // the floor-distance ablation is imbalanced by design
	}
	var errs []error
	for _, s := range res.Series {
		if s.Scheme.Rotation != core.BalancedRotation || s.Scheme.SeparateBalance {
			continue
		}
		for _, p := range s.Points {
			if p.UnstableReps > 0 {
				continue
			}
			for d, u := range p.DimUtil {
				if v := u.Mean(); !(math.Abs(v-p.Rho) <= utilTol) {
					errs = append(errs, fmt.Errorf("%s %s rho %g: dimension %d utilization %.4f not within %g of rho",
						res.Exp.ID, s.Scheme.Name, p.Rho, d, v, utilTol))
				}
			}
		}
	}
	return errs
}

func jointVsSeparate(res *sweep.Result) []error {
	var errs []error
	star, err := series(res, sweep.PrioritySTARSpec.Name)
	if err != nil {
		return []error{err}
	}
	for _, p := range star.Points {
		if p.UnstableReps > 0 {
			errs = append(errs, fmt.Errorf("%s: joint (Eq. 4) priority-STAR unstable at rho %g", res.Exp.ID, p.Rho))
		}
	}
	top := res.Exp.Rhos[len(res.Exp.Rhos)-1]
	for _, name := range []string{sweep.SeparatePrioSpec.Name, sweep.SeparateSpec.Name} {
		sep, err := series(res, name)
		if err != nil {
			errs = append(errs, err)
			continue
		}
		p, err := pointAt(sep, top)
		if err != nil {
			errs = append(errs, err)
			continue
		}
		if v := p.Value(sweep.MetricMaxDimUtil); !(v >= pinnedUtil) {
			errs = append(errs, fmt.Errorf("%s %s rho %g: max-dimension utilization %.4f, want pinned >= %g",
				res.Exp.ID, name, top, v, pinnedUtil))
		}
	}
	return errs
}

func unicastWithinDave(res *sweep.Result) []error {
	shape, err := torus.New(res.Exp.Dims...)
	if err != nil {
		return []error{err}
	}
	limit := unicastBound * shape.AvgDistance()
	var errs []error
	for _, name := range []string{sweep.PrioritySTARSpec.Name, sweep.PrioritySTAR3Spec.Name} {
		s, err := series(res, name)
		if err != nil {
			errs = append(errs, err)
			continue
		}
		for _, p := range s.Points {
			if v := p.Value(sweep.MetricUnicast); !(v <= limit) {
				errs = append(errs, fmt.Errorf("%s %s rho %g: unicast delay %.4f above %g x D_ave = %.4f",
					res.Exp.ID, name, p.Rho, v, unicastBound, limit))
			}
		}
	}
	return errs
}
