package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"godisc"
	"godisc/internal/fleet"
	"godisc/internal/graph"
	"godisc/internal/models"
	"godisc/internal/obs"
	"godisc/internal/ral"
)

// Load generation limits, sized for a 2-CPU host: every request comes
// from this one process over at most two keep-alive connections, driven
// by at most two sender goroutines.
const connections = 2

// fleet-http traffic.
var httpRank = []string{"mlp", "gpt2", "bert", "dlrm", "textcnn"}

const (
	// httpRate is the fixed open-loop arrival rate (requests/s): about a
	// third of the closed-loop saturation throughput (~455 req/s on a
	// 2-CPU Xeon) of the commit that introduced this benchmark. At two
	// thirds of saturation, queueing turned the host's speed drift into
	// twofold swings of the median latency between runs. Never re-tune
	// it: moving it moves every latency figure.
	httpRate = 150
	// httpSLOMs is fleet-http's latency limit for slo_attain.
	httpSLOMs = 25
	// maxTimerLagMs bounds the open-loop generator's p99 wake-up lag and
	// maxBehind how late the last sends of the phase may go out. A run
	// beyond either is invalid: the offered load was not the schedule.
	// Wake-up lag of a few milliseconds is normal on a shared 2-CPU VM
	// and is charged to latency anyway, which is timed from due time.
	maxTimerLagMs = 50
	maxBehind     = time.Second
)

// httpShapes are small-compute, payload-heavy points.
func httpShapes(m *models.Model) []shape {
	switch m.Name {
	case "bert":
		return []shape{{1, 32}, {2, 16}, {1, 64}}
	case "gpt2":
		return []shape{{1, 32}, {1, 64}, {2, 32}}
	case "textcnn":
		return []shape{{1, 64}, {2, 32}, {1, 128}}
	case "dlrm":
		return []shape{{1, 1}, {4, 1}, {8, 1}}
	default:
		return []shape{{1, 1}, {2, 1}, {4, 1}}
	}
}

// fleet-churn traffic: a fixed popularity order over all 14 versions,
// version 1 of every model ahead of any version 2.
var churnModels = []string{"mlp", "dlrm", "gpt2", "textcnn", "bert", "asr", "seq2seq"}

// churnSLOMs is fleet-churn's latency limit for slo_attain.
const churnSLOMs = 50

func churnShapes(m *models.Model) []shape {
	if m.MaxSeq == 1 {
		return []shape{{1, 1}, {2, 1}}
	}
	return []shape{{1, 16}, {2, 8}}
}

func churnWeight(p *point) int {
	for i, name := range churnModels {
		if name == p.model {
			rank := i + 1
			if p.version == "2" {
				rank += len(churnModels)
			}
			return zipfWeight(14, rank)
		}
	}
	return 1
}

// fleetSpec configures one fleet under test.
type fleetSpec struct {
	served   []*servedModel
	maxBatch int
	// fleetBudget caps the resident engine footprints (weights) on the
	// fleet's own ledger, forcing LRU eviction; runBudget caps per-run
	// buffer footprints on the server's governor. 0 disables either.
	fleetBudget int64
	runBudget   int64
}

// fleetSys exposes a running fleet's internals to the traced run.
type fleetSys struct {
	srv       *godisc.Server
	reg       *obs.Registry
	fgov      *ral.Governor
	reqBytes  atomic.Int64
	respBytes atomic.Int64
	responses atomic.Int64
	non200    atomic.Int64
}

// hookOf keeps a nil tracer a nil interface, so untraced systems take
// the instrumentation-off path.
func hookOf(tr *obs.Tracer) obs.Hook {
	if tr == nil {
		return nil
	}
	return tr
}

// startFleet is the fleet set-up that setup_s times: write the model
// repository, open an empty engine cache, build the server and the fleet
// (which compiles, persists and charges every version), and start
// serving HTTP on loopback.
func startFleet(dir string, spec fleetSpec, g *gate, tr *obs.Tracer) (*target, *fleetSys, error) {
	root, err := os.MkdirTemp(dir, "fleet-")
	if err != nil {
		return nil, nil, err
	}
	repo := filepath.Join(root, "repo")
	write := func(version string) error {
		for _, sm := range spec.served {
			if sm.version != version {
				continue
			}
			vdir := filepath.Join(repo, sm.name, sm.version)
			if err := os.MkdirAll(vdir, 0o755); err != nil {
				return err
			}
			if err := os.WriteFile(filepath.Join(vdir, fleet.GraphFileName), []byte(sm.text), 0o644); err != nil {
				return err
			}
		}
		return nil
	}
	if err := write("1"); err != nil {
		return nil, nil, err
	}
	fs := &fleetSys{reg: obs.NewRegistry(), fgov: ral.NewGovernor(spec.fleetBudget)}
	fs.srv = godisc.NewServer(godisc.ServerConfig{
		MaxBatchSize:      spec.maxBatch,
		MemoryBudgetBytes: spec.runBudget,
		CacheDir:          filepath.Join(root, "cache"),
		Observer:          hookOf(tr),
		Metrics:           fs.reg,
	})
	fl, err := godisc.NewFleet(godisc.FleetConfig{
		Server: fs.srv, Repo: repo, AutoLoad: true, Governor: fs.fgov,
		Metrics: fs.reg, Observer: hookOf(tr), Tracer: tr,
	})
	if err != nil {
		fs.srv.Close()
		return nil, nil, err
	}
	// Version 2 rolls in after version 1 is serving, as a new version
	// would: LoadModel only evicts loaded versions, so loading both
	// versions of a model at once could not fit a budget smaller than
	// the pair.
	if err := write("2"); err != nil {
		return nil, nil, err
	}
	for _, sm := range spec.served {
		if sm.version == "2" {
			if err := fl.LoadModel(context.Background(), sm.name); err != nil {
				return nil, nil, err
			}
		}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, err
	}
	hs := &http.Server{Handler: fl, ReadHeaderTimeout: 10 * time.Second}
	served := make(chan struct{})
	go func() {
		defer close(served)
		_ = hs.Serve(ln) // returns http.ErrServerClosed after Close
	}()
	tp := &http.Transport{MaxConnsPerHost: connections, MaxIdleConnsPerHost: connections, DisableCompression: true}
	client := &http.Client{Transport: tp, Timeout: time.Minute}
	base := "http://" + ln.Addr().String()
	t := &target{
		tracer: tr,
		close: func() {
			_ = hs.Close()
			<-served
			tp.CloseIdleConnections()
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			_ = fl.Close(ctx)
			_ = fs.srv.Shutdown(ctx)
			_ = os.RemoveAll(root)
		},
		do: func(ctx context.Context, p *point) bool {
			req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+p.path, bytes.NewReader(p.body))
			if err != nil {
				g.fail("%s: %v", p.label(), err)
				return false
			}
			req.Header.Set("Content-Type", "application/json")
			resp, err := client.Do(req)
			if err != nil {
				g.fail("%s: %v", p.label(), err)
				return false
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				g.fail("%s: reading response: %v", p.label(), err)
				return false
			}
			fs.reqBytes.Add(int64(len(p.body)))
			fs.respBytes.Add(int64(len(body)))
			fs.responses.Add(1)
			if resp.StatusCode != http.StatusOK {
				// A rejection is a failed request, not a wrong answer.
				fs.non200.Add(1)
				return false
			}
			return g.checkBody(p, body)
		},
	}
	return t, fs, nil
}

// constBytes sums a graph's constant payload bytes: the resident
// footprint the fleet charges for a loaded version.
func constBytes(text string) (int64, error) {
	g, err := graph.ParseText(text)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, nd := range g.Nodes() {
		if nd.Lit != nil {
			n += int64(nd.Lit.Bytes())
		}
	}
	return n, nil
}

func runFleetHTTP(c runConfig) (*result, error) {
	served := serveModels(httpRank, 1)
	pts, err := makePoints(c.seed, served, httpShapes, true)
	if err != nil {
		return nil, err
	}
	d := deck(c.seed, pts, rankWeight(httpRank, 6))
	res := &result{gate: newGate()}
	spec := fleetSpec{served: served, maxBatch: 8}
	var fs *fleetSys
	start := func() (*target, error) {
		var t *target
		var err error
		t, fs, err = startFleet(c.dir, spec, res.gate, nil)
		return t, err
	}
	dur := time.Duration(c.seconds * float64(time.Second))
	if c.trace {
		return res, tracedRun(c, res, tracedSpec{
			served: served, pts: pts, deck: d, clients: connections, dur: dur / 6,
			start: func(tr *obs.Tracer, _ *obs.Registry) (*target, *fleetSys, error) {
				return startFleet(c.dir, spec, res.gate, tr)
			},
			open: func(t *target, ph *phase) openLoopStats {
				return openLoop(t, pts, d, c.seed, httpRate, connections, dur/6, ph)
			},
		})
	}
	t, setups, err := timedSetups(setupRuns, start)
	if err != nil {
		return nil, err
	}
	defer t.close()
	warm(t, pts)
	ph := beginPhase(httpSLOMs)
	ol := openLoop(t, pts, d, c.seed, httpRate, connections, dur/2, ph)
	ph.end()
	if msg := olInvalid(ol); msg != "" {
		res.invalid = msg
	}
	sat := beginPhase(httpSLOMs)
	closedLoop(t, pts, d, connections, dur*3/5, sat)
	sat.end()
	reportE2E(res, setups, ph, sat)
	res.notef("open-loop rate=%d/s sent=%d timer_lag_p99_ms=%.3f behind_ms=%.3f non200=%d",
		httpRate, ol.sent, quantile(ol.timerLag, 0.99), ms(ol.behind), fs.non200.Load())
	return res, nil
}

// olInvalid explains why an open-loop phase is invalid, or returns "".
func olInvalid(ol openLoopStats) string {
	if lag := quantile(ol.timerLag, 0.99); lag > maxTimerLagMs {
		return fmt.Sprintf("generator timer lag p99 %.2fms exceeds %dms", lag, maxTimerLagMs)
	}
	if ol.behind > maxBehind {
		return fmt.Sprintf("generator fell %v behind schedule (bound %v)", ol.behind, maxBehind)
	}
	return ""
}

func runFleetChurn(c runConfig) (*result, error) {
	served := serveModels(churnModels, 2)
	pts, err := makePoints(c.seed, served, churnShapes, true)
	if err != nil {
		return nil, err
	}
	d := deck(c.seed, pts, churnWeight)
	res := &result{gate: newGate()}
	var total int64
	for _, sm := range served {
		b, err := constBytes(sm.text)
		if err != nil {
			return nil, err
		}
		total += b
	}
	spec := fleetSpec{served: served, fleetBudget: total / 3, runBudget: 256 << 20}
	res.notef("fleet resident footprint total=%dB budget=%dB", total, spec.fleetBudget)
	dur := time.Duration(c.seconds * float64(time.Second))
	if c.trace {
		return res, tracedRun(c, res, tracedSpec{
			served: served, pts: pts, deck: d, clients: connections, dur: dur / 4,
			start: func(tr *obs.Tracer, _ *obs.Registry) (*target, *fleetSys, error) {
				return startFleet(c.dir, spec, res.gate, tr)
			},
		})
	}
	var fs *fleetSys
	t, setups, err := timedSetups(setupRuns, func() (*target, error) {
		var t *target
		var err error
		t, fs, err = startFleet(c.dir, spec, res.gate, nil)
		return t, err
	})
	if err != nil {
		return nil, err
	}
	defer t.close()
	warm(t, pts)
	st0 := fs.srv.Stats()
	ph := beginPhase(churnSLOMs)
	closedLoop(t, pts, d, connections, dur*4/5, ph)
	ph.end()
	st := fs.srv.Stats()
	reportE2E(res, setups, ph, ph)
	res.notef("churn engine_loads=%d compilations=%d non200=%d", st.EngineLoads-st0.EngineLoads, st.Compilations-st0.Compilations, fs.non200.Load())
	return res, nil
}
