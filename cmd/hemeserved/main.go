// Command hemeserved is the multi-tenant simulation daemon: a job
// manager running many simulations concurrently behind a bounded
// queue, steerable and observable over HTTP. A frame renders from a
// solver snapshot — outside every solver loop — on the request that
// missed the shared LRU cache, so any number of clients on the same
// view cost one render, whether they poll /frame or follow the /stream
// push feed.
//
//	hemeserved -addr 127.0.0.1:7070 -workers 4 -queue 64
//
// With -data-dir the daemon is durable: every accepted job is
// journaled, running jobs checkpoint their solver state every
// -checkpoint-every steps (overridable per job via checkpoint_every),
// and a restart — graceful or kill -9 — re-queues interrupted jobs and
// resumes each from its latest valid checkpoint:
//
//	hemeserved -addr 127.0.0.1:7070 -data-dir /var/lib/hemeserved
//
// Submit and drive jobs with plain HTTP:
//
//	curl -X POST localhost:7070/api/v1/jobs \
//	     -d '{"preset":"aneurysm","steps":5000,"ranks":4}'
//	curl localhost:7070/api/v1/jobs
//	curl "localhost:7070/api/v1/jobs/job-0001/frame?w=256&h=192" -o frame.png
//	curl -N "localhost:7070/api/v1/jobs/job-0001/stream?w=256&h=192"   # SSE frame feed
//	curl -X POST localhost:7070/api/v1/jobs/job-0001/steer \
//	     -d '{"op":"set-iolet","iolet":0,"density":1.05}'
//	curl localhost:7070/metrics
//
// SIGINT/SIGTERM ends live streams, drains HTTP, cancels live jobs and
// exits. An unknown flag fails at boot.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	_ "net/http/pprof" // registered on DefaultServeMux, served only via -pprof-addr
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/service/store"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	err := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "hemeserved:", err)
		if errors.Is(err, errUsage) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

var errUsage = errors.New("bad command line (see -h)")

// config is the daemon's command line.
type config struct {
	addr, dataDir, authKeys, pprofAddr, logLevel, logFormat string
	workers, queue, checkpointEvery                         int
	maxActive, submitBurst, storeRetain                     int
	submitRate                                              float64
	memLimit                                                int64
	storeRetainAge, watchdogStall, grace                    time.Duration
}

// flagSet declares the daemon's flags, bound to c.
func flagSet(c *config) *flag.FlagSet {
	fs := flag.NewFlagSet("hemeserved", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	fs.StringVar(&c.addr, "addr", "127.0.0.1:7070", "HTTP listen address")
	fs.IntVar(&c.workers, "workers", 4, "concurrent simulation workers, and frames rendered at once")
	fs.IntVar(&c.queue, "queue", 64, "submission queue capacity")
	fs.StringVar(&c.dataDir, "data-dir", "", "durable job store directory (empty = in-memory only)")
	fs.IntVar(&c.checkpointEvery, "checkpoint-every", 64, "default checkpoint cadence in steps for jobs that leave checkpoint_every at 0 (-1 = no default; jobs may still opt in)")
	fs.StringVar(&c.authKeys, "auth-keys", "", "per-tenant API key file: 'tenant key [max_active=N] [rate=R] [burst=B]' per line (empty = no auth, everyone is anonymous)")
	fs.IntVar(&c.maxActive, "max-active", 0, "default per-tenant cap on queued+running jobs (0 = unlimited)")
	fs.Float64Var(&c.submitRate, "submit-rate", 0, "default per-tenant submit rate limit in jobs/sec (0 = unlimited)")
	fs.IntVar(&c.submitBurst, "submit-burst", 0, "default per-tenant submit burst size (0 = rate rounded up)")
	fs.Int64Var(&c.memLimit, "mem-limit", 0, "shed new submissions while Go heap use exceeds this many bytes (0 = disabled)")
	fs.IntVar(&c.storeRetain, "store-retain", 0, "keep at most this many terminal jobs in the store, GCing the oldest (0 = keep all)")
	fs.DurationVar(&c.storeRetainAge, "store-retain-age", 0, "GC terminal jobs older than this (0 = keep forever)")
	fs.DurationVar(&c.watchdogStall, "watchdog-stall", 2*time.Minute, "flag a running job as stalled after this long without step progress (0 = watchdog off)")
	fs.StringVar(&c.pprofAddr, "pprof-addr", "", "serve net/http/pprof on this address (empty = disabled; keep it on loopback)")
	fs.DurationVar(&c.grace, "grace", 10*time.Second, "graceful shutdown window")
	fs.StringVar(&c.logLevel, "log-level", "info", "log verbosity: debug, info, warn or error")
	fs.StringVar(&c.logFormat, "log-format", "text", "log output format: text or json")
	return fs
}

// run boots the daemon from args, logs to stderr, serves until ctx is
// cancelled and then shuts down within -grace. -h prints the flags to
// stdout.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	var c config
	fs := flagSet(&c)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			fs.SetOutput(stdout)
			fs.PrintDefaults()
			return nil
		}
		return fmt.Errorf("%w: %v", errUsage, err)
	}
	log, err := obs.NewLogger(stderr, c.logLevel, c.logFormat)
	if err != nil {
		return fmt.Errorf("%w: %v", errUsage, err)
	}

	var tenantCfgs []service.TenantConfig
	if c.authKeys != "" {
		if tenantCfgs, err = service.LoadAuthKeys(c.authKeys); err != nil {
			return fmt.Errorf("loading auth keys failed: %w", err)
		}
		log.Info("auth enabled", "tenants", len(tenantCfgs))
	}

	if c.pprofAddr != "" {
		// Opt-in profiling endpoint, separate from the API listener so
		// operators can firewall it independently. Timeouts match the
		// API server's: a stuck profile reader must not pin the
		// connection forever. WriteTimeout is generous because CPU
		// profiles stream for their full -seconds duration.
		pprofSrv := &http.Server{
			Addr:              c.pprofAddr,
			ReadHeaderTimeout: 10 * time.Second,
			ReadTimeout:       30 * time.Second,
			WriteTimeout:      5 * time.Minute,
			IdleTimeout:       2 * time.Minute,
			MaxHeaderBytes:    64 << 10,
		}
		done := make(chan struct{})
		go func() {
			defer close(done)
			if err := pprofSrv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
				log.Error("pprof listener exited", "err", err)
			}
		}()
		defer func() {
			pprofSrv.Close()
			<-done
		}()
		log.Info("pprof enabled", "url", fmt.Sprintf("http://%s/debug/pprof/", c.pprofAddr))
	}

	var st *store.Store
	if c.dataDir != "" {
		if st, err = store.Open(c.dataDir); err != nil {
			return fmt.Errorf("opening data dir failed: %w", err)
		}
		st.SetLogger(log)
	}
	metrics := &service.Metrics{}
	mgr := service.NewManagerOpts(service.Options{
		Workers:         c.workers,
		QueueCap:        c.queue,
		Metrics:         metrics,
		Store:           st,
		CheckpointEvery: c.checkpointEvery,
		AuthKeys:        tenantCfgs,
		TenantDefaults: service.TenantLimits{
			MaxActive: c.maxActive,
			Rate:      c.submitRate,
			Burst:     c.submitBurst,
		},
		MemLimit:       c.memLimit,
		StoreRetain:    c.storeRetain,
		StoreRetainAge: c.storeRetainAge,
		WatchdogStall:  c.watchdogStall,
		Logger:         log,
	})
	if st != nil {
		log.Info("store recovered", "data_dir", c.dataDir,
			"jobs", metrics.JobsRecovered.Load(), "requeued", metrics.JobRestarts.Load())
	}
	srv := service.NewServer(mgr)
	if err := srv.Start(c.addr); err != nil {
		mgr.Close()
		return fmt.Errorf("listen on %s failed: %w", c.addr, err)
	}
	log.Info("listening", "url", "http://"+srv.Addr(), "workers", c.workers, "queue", c.queue)

	<-ctx.Done()
	log.Info("shutting down", "grace", c.grace)
	// ctx is done by now: the grace window is a deadline of its own.
	sctx, cancel := context.WithTimeout(context.Background(), c.grace)
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil {
		return fmt.Errorf("shutdown incomplete: %w", err)
	}
	return nil
}
