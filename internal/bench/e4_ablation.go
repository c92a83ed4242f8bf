package bench

import (
	"fmt"
	"io"

	"godisc/internal/baselines"
	"godisc/internal/codegen"
	"godisc/internal/fusion"
)

// AblationRow is one configuration of the contribution-breakdown figure
// (E4): which optimizations are on and the resulting per-request time.
type AblationRow struct {
	Config string
	// NsPerRequest[model].
	NsPerRequest map[string]float64
	// SpeedupOverBase[model] = no-optimization time / this config's time.
	SpeedupOverBase map[string]float64
	// Launches[model] per request.
	Launches map[string]float64
}

// ablationConfigs defines the cumulative optimization ladder.
func ablationConfigs() []struct {
	name string
	fus  fusion.Config
	cg   codegen.Options
} {
	return []struct {
		name string
		fus  fusion.Config
		cg   codegen.Options
	}{
		{"base (no fusion)", fusion.Config{}, codegen.Options{}},
		{"+kLoop", fusion.Config{EnableLoop: true}, codegen.Options{}},
		{"+kInput", fusion.Config{EnableLoop: true, EnableInput: true}, codegen.Options{}},
		{"+kStitch", fusion.Config{EnableLoop: true, EnableInput: true, EnableStitch: true}, codegen.Options{}},
		{"+horizontal", fusion.DefaultConfig(), codegen.Options{}},
		{"+specialization", fusion.DefaultConfig(), codegen.DefaultOptions()},
	}
}

// Ablation runs the cumulative contribution breakdown (experiment E4):
// fusion kinds and codegen specialization are enabled one by one, measuring
// steady-state time per request on the standard trace.
func Ablation(cfg Config) ([]AblationRow, error) {
	dev, err := cfg.device()
	if err != nil {
		return nil, err
	}
	suite, err := cfg.modelSet()
	if err != nil {
		return nil, err
	}
	var rows []AblationRow
	base := map[string]float64{}
	for _, ac := range ablationConfigs() {
		row := AblationRow{
			Config:          ac.name,
			NsPerRequest:    map[string]float64{},
			SpeedupOverBase: map[string]float64{},
			Launches:        map[string]float64{},
		}
		for _, m := range suite {
			params := baselines.BladeDISCParams()
			params.Fusion = ac.fus
			params.Codegen = ac.cg
			s, err := baselines.NewCompiled(m.Build(), dev, params)
			if err != nil {
				return nil, fmt.Errorf("bench: ablation %q on %s: %w", ac.name, m.Name, err)
			}
			tr := cfg.traceFor(m)
			if _, err := Replay(s, m, tr); err != nil {
				return nil, err
			}
			prof, err := Replay(s, m, tr)
			if err != nil {
				return nil, err
			}
			ns := prof.SimulatedNs / float64(len(tr.Points))
			row.NsPerRequest[m.Name] = ns
			row.Launches[m.Name] = float64(prof.Launches) / float64(len(tr.Points))
			if ac.name == "base (no fusion)" {
				base[m.Name] = ns
			}
			row.SpeedupOverBase[m.Name] = base[m.Name] / ns
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// PrintAblation renders the E4 figure.
func PrintAblation(w io.Writer, cfg Config, rows []AblationRow) {
	fmt.Fprintf(w, "Optimization ablation on %s (E4): cumulative speedup over unfused\n\n", cfg.Device)
	if len(rows) == 0 {
		return
	}
	modelsOrder := sortedKeys(rows[0].NsPerRequest)
	fmt.Fprintf(w, "%-18s", "config")
	for _, m := range modelsOrder {
		fmt.Fprintf(w, "%10s %9s", m, "launches")
	}
	fmt.Fprintln(w)
	printRule(w, 2+2*len(modelsOrder), 10)
	for _, r := range rows {
		fmt.Fprintf(w, "%-18s", r.Config)
		for _, m := range modelsOrder {
			fmt.Fprintf(w, "%9.2fx %9.1f", r.SpeedupOverBase[m], r.Launches[m])
		}
		fmt.Fprintln(w)
	}
}
