package workload

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"runtime"
	"time"

	"ensdropcatch/bench/loadgen"
	"ensdropcatch/bench/spans"
	"ensdropcatch/internal/dataset"
	"ensdropcatch/internal/etherscan"
	"ensdropcatch/internal/ethtypes"
	"ensdropcatch/internal/obs"
	"ensdropcatch/internal/opensea"
	"ensdropcatch/internal/serve"
	"ensdropcatch/internal/subgraph"
	"ensdropcatch/internal/world"
)

// crawlDomains sizes the crawl world so that one pass takes under a
// second and a run holds about twenty passes to take the median of.
const crawlDomains = 2000

// etherscanRate lifts the server's per-key limit far above what one
// process can send, so no run measures rate-limit pacing.
const etherscanRate = 1 << 30

// crawl times the paper's Figure 1 collection: one full dataset.Build
// over HTTP through the real subgraph, etherscan and opensea clients,
// then a binary Save. Each pass gets a fresh serve stack.
type crawl struct {
	seed    int64
	domains int
	workDir string

	res   *world.Result
	store *subgraph.Store
	want  uint64 // fingerprint of dataset.FromWorld on the same world
}

func (c *crawl) rootPrefix() string { return "crawl.pass" }

func (c *crawl) setup(ctx context.Context, rec *spans.Recorder, parent uint64) error {
	res, err := generate(rec, parent, c.seed, c.domains)
	if err != nil {
		return err
	}
	// Each pass assembles a fresh stack around this index.
	sp := rec.Start("serve.new", parent, 0)
	c.store = subgraph.BuildIndex(res.Chain)
	sp.End()

	sp = rec.Start("setup.reference", parent, 0)
	defer sp.End()
	ref, err := dataset.FromWorld(ctx, res, dataset.BuildOptions{})
	if err != nil {
		return fmt.Errorf("reference dataset: %w", err)
	}
	c.want = ref.Fingerprint()
	c.res = res
	return nil
}

func (c *crawl) close() { c.res, c.store = nil, nil }

func (c *crawl) measure(ctx context.Context, rec *spans.Recorder, w *window, d time.Duration) (*measurement, error) {
	m := &measurement{layers: map[string]float64{}}
	var passes []time.Duration
	var rates []float64
	deadline := time.Now().Add(d)
	for m.attempted == 0 || time.Now().Before(deadline) {
		// Every pass starts from the same heap: the last pass's garbage
		// is collected outside the timed part.
		runtime.GC()
		t, txs, err := c.pass(ctx, rec, w)
		m.attempted++
		if err != nil {
			m.fail(err)
			if errors.Is(err, errSetupBroken) {
				return nil, err
			}
			continue
		}
		passes = append(passes, t.wall)
		rates = append(rates, float64(txs)/t.cpu.Seconds())
		m.items += txs
	}
	m.passes = len(passes)
	m.fingerprint = c.want
	if len(passes) == 0 {
		return m, nil
	}
	m.p50, m.n50 = median(passes), len(passes)
	m.throughput = median(rates)
	return m, nil
}

// errSetupBroken marks a pass that failed before the timed part.
var errSetupBroken = errors.New("crawl: could not prepare a pass")

// pass serves the world on a fresh stack, crawls it and saves the
// result, then checks the dataset and its reload against the
// reference fingerprint. It returns the time Build plus Save took and
// the number of transactions crawled.
func (c *crawl) pass(ctx context.Context, rec *spans.Recorder, w *window) (timing, int, error) {
	stack := serve.New(c.res, c.store, serve.Config{EtherscanRate: etherscanRate, Registry: obs.NewRegistry()})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return timing{}, 0, fmt.Errorf("%w: %v", errSetupBroken, err)
	}
	srv := &http.Server{Handler: serverSpans(rec, stack.Handler), ReadHeaderTimeout: 10 * time.Second}
	served := make(chan struct{})
	go func() {
		defer close(served)
		_ = srv.Serve(ln) // returns http.ErrServerClosed once Close runs
	}()
	defer func() {
		_ = srv.Close() // the pass is over; a close error changes no result
		<-served
	}()
	hc := loadgen.NewHTTPClient(maxConns())
	defer hc.CloseIdleConnections()
	sg, es, osc := crawlClients("http://"+ln.Addr().String(), hc)

	dir, err := os.MkdirTemp(c.workDir, "crawl-")
	if err != nil {
		return timing{}, 0, fmt.Errorf("%w: %v", errSetupBroken, err)
	}
	defer os.RemoveAll(dir)

	w.begin()
	root := rec.Start("crawl.pass", 0, 0)
	sw := startWatch()
	bsp := rec.Start("dataset.build", root.ID(), root.ID())
	src := &sources{rec: rec, sg: sg, es: es, os: osc, req: root.ID()}
	ds, err := build(spans.WithParent(ctx, bsp.ID()), c.res, src, src, src)
	bsp.End()
	if err != nil {
		root.End()
		w.end()
		return timing{}, 0, fmt.Errorf("build: %w", err)
	}
	ssp := rec.Start("dataset.save", root.ID(), root.ID())
	err = ds.Save(dir, dataset.WithFormat(dataset.FormatBinary))
	ssp.End()
	t := sw.stop()
	root.End()
	w.end()
	if err != nil {
		return timing{}, 0, fmt.Errorf("save: %w", err)
	}

	if got := ds.Fingerprint(); got != c.want {
		return timing{}, 0, fmt.Errorf("crawled dataset fingerprint %x, want %x from FromWorld", got, c.want)
	}
	back, err := dataset.Load(dir)
	if err != nil {
		return timing{}, 0, fmt.Errorf("reload: %w", err)
	}
	if got := back.Fingerprint(); got != c.want {
		return timing{}, 0, fmt.Errorf("reloaded snapshot fingerprint %x, want %x", got, c.want)
	}
	return t, len(ds.Txs), nil
}

// crawlClients returns the program's three crawl clients against the
// server at base, unpaced, sharing hc.
func crawlClients(base string, hc *http.Client) (*subgraph.Client, *etherscan.Client, *opensea.Client) {
	sg := subgraph.NewClient(base + "/subgraph")
	sg.HTTPClient = hc
	es := etherscan.NewClient(base+"/etherscan", "ensbench")
	es.MinInterval = 0
	es.HTTPClient = hc
	osc := opensea.NewClient(base + "/opensea")
	osc.HTTPClient = hc
	return sg, es, osc
}

// build crawls res's collection window from the three sources with two
// transaction and two market workers.
func build(ctx context.Context, res *world.Result, regs dataset.RegistrationSource, txs dataset.TxSource, market dataset.MarketSource) (*dataset.Dataset, error) {
	return dataset.Build(ctx, regs, txs, market, dataset.BuildOptions{
		Start: res.Config.Start, End: res.Config.End, TxWorkers: 2, MarketWorkers: 2,
	})
}

// sources wraps the three crawl clients as dataset.Build's sources,
// recording each call, in traced runs, as a span under the Build span.
type sources struct {
	rec *spans.Recorder
	sg  *subgraph.Client
	es  *etherscan.Client
	os  *opensea.Client
	req uint64
}

func (s *sources) span(ctx context.Context, name string) *spans.Open {
	return s.rec.Start(name, spans.ParentOf(ctx), s.req)
}

func (s *sources) PageAll(ctx context.Context, collection string, fields []string) ([]subgraph.Entity, error) {
	defer s.span(ctx, "subgraph.pageall").End()
	return s.sg.PageAll(ctx, collection, fields)
}

func (s *sources) TxList(ctx context.Context, addr ethtypes.Address) ([]etherscan.TxRecord, error) {
	defer s.span(ctx, "etherscan.txlist").End()
	return s.es.TxList(ctx, addr)
}

func (s *sources) FetchLabels(ctx context.Context) (etherscan.Labels, error) {
	defer s.span(ctx, "etherscan.labels").End()
	return s.es.FetchLabels(ctx)
}

func (s *sources) EventsForToken(ctx context.Context, token ethtypes.Hash) ([]opensea.Event, error) {
	defer s.span(ctx, "opensea.events").End()
	return s.os.EventsForToken(ctx, token)
}

// generate builds the seeded world under a world.generate span.
func generate(rec *spans.Recorder, parent uint64, seed int64, domains int) (*world.Result, error) {
	sp := rec.Start("world.generate", parent, 0)
	defer sp.End()
	cfg := world.DefaultConfig(domains)
	cfg.Seed = seed
	res, err := world.Generate(cfg)
	if err != nil {
		return nil, fmt.Errorf("generate world: %w", err)
	}
	return res, nil
}
