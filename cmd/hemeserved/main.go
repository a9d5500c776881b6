// Command hemeserved is the multi-tenant simulation daemon: a job
// manager running many simulations concurrently behind a bounded
// queue, steerable and observable over HTTP. Frames render on a
// dedicated pool from solver snapshots — outside every solver loop —
// and fan out through a shared LRU cache, so any number of clients on
// the same view cost one render, whether they poll /frame or follow
// the /stream push feed.
//
//	hemeserved -addr 127.0.0.1:7070 -workers 4 -queue 64 -render-workers 4
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
// exits.
package main

import (
	"context"
	"flag"
	"fmt"
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
	addr := flag.String("addr", "127.0.0.1:7070", "HTTP listen address")
	workers := flag.Int("workers", 4, "concurrent simulation workers")
	queue := flag.Int("queue", 64, "submission queue capacity")
	renderWorkers := flag.Int("render-workers", 0, "render pool workers (0 = same as -workers)")
	renderQueue := flag.Int("render-queue", 0, "render pool queue depth (0 = 4x render workers)")
	solverThreads := flag.Int("solver-threads", 1, "default per-rank collide+stream worker goroutines for jobs that leave threads at 0 (capped at 16; results are bit-identical to serial)")
	dataDir := flag.String("data-dir", "", "durable job store directory (empty = in-memory only)")
	checkpointEvery := flag.Int("checkpoint-every", 64, "default checkpoint cadence in steps for jobs that leave checkpoint_every at 0 (-1 = no default; jobs may still opt in)")
	checkpointBudget := flag.Float64("checkpoint-budget", 0, "cap per-job checkpoint write time to this fraction of its runtime (0 = 0.05, negative = no cap)")
	authKeys := flag.String("auth-keys", "", "per-tenant API key file: 'tenant key [max_active=N] [rate=R] [burst=B]' per line (empty = no auth, everyone is anonymous)")
	maxActive := flag.Int("max-active", 0, "default per-tenant cap on queued+running jobs (0 = unlimited)")
	submitRate := flag.Float64("submit-rate", 0, "default per-tenant submit rate limit in jobs/sec (0 = unlimited)")
	submitBurst := flag.Int("submit-burst", 0, "default per-tenant submit burst size (0 = rate rounded up)")
	memLimit := flag.Int64("mem-limit", 0, "shed new submissions while Go heap use exceeds this many bytes (0 = disabled)")
	storeRetain := flag.Int("store-retain", 0, "keep at most this many terminal jobs in the store, GCing the oldest (0 = keep all)")
	storeRetainAge := flag.Duration("store-retain-age", 0, "GC terminal jobs older than this (0 = keep forever)")
	watchdogStall := flag.Duration("watchdog-stall", 2*time.Minute, "flag a running job as stalled after this long without step progress (0 = watchdog off)")
	watchdogStrikes := flag.Int("watchdog-strikes", 3, "consecutive stall flags before the watchdog requeues the job (0 = flag only, never requeue)")
	pprofAddr := flag.String("pprof-addr", "", "serve net/http/pprof on this address (empty = disabled; keep it on loopback)")
	grace := flag.Duration("grace", 10*time.Second, "graceful shutdown window")
	logLevel := flag.String("log-level", "info", "log verbosity: debug, info, warn or error")
	logFormat := flag.String("log-format", "text", "log output format: text or json")
	flag.Parse()

	log, err := obs.NewLogger(os.Stderr, *logLevel, *logFormat)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hemeserved:", err)
		os.Exit(2)
	}

	var tenantCfgs []service.TenantConfig
	if *authKeys != "" {
		if tenantCfgs, err = service.LoadAuthKeys(*authKeys); err != nil {
			log.Error("loading auth keys failed", "err", err)
			os.Exit(1)
		}
		log.Info("auth enabled", "tenants", len(tenantCfgs))
	}

	if *pprofAddr != "" {
		// Opt-in profiling endpoint, separate from the API listener so
		// operators can firewall it independently. Timeouts match the
		// API server's: a stuck profile reader must not pin the
		// connection forever. WriteTimeout is generous because CPU
		// profiles stream for their full -seconds duration.
		pprofSrv := &http.Server{
			Addr:              *pprofAddr,
			ReadHeaderTimeout: 10 * time.Second,
			ReadTimeout:       30 * time.Second,
			WriteTimeout:      5 * time.Minute,
			IdleTimeout:       2 * time.Minute,
			MaxHeaderBytes:    64 << 10,
		}
		go func() {
			log.Error("pprof listener exited", "err", pprofSrv.ListenAndServe())
		}()
		log.Info("pprof enabled", "url", fmt.Sprintf("http://%s/debug/pprof/", *pprofAddr))
	}

	var st *store.Store
	if *dataDir != "" {
		if st, err = store.Open(*dataDir); err != nil {
			log.Error("opening data dir failed", "err", err)
			os.Exit(1)
		}
		st.SetLogger(log)
	}
	metrics := &service.Metrics{}
	mgr := service.NewManagerOpts(service.Options{
		Workers:          *workers,
		QueueCap:         *queue,
		RenderWorkers:    *renderWorkers,
		RenderQueue:      *renderQueue,
		SolverThreads:    *solverThreads,
		Metrics:          metrics,
		Store:            st,
		CheckpointEvery:  *checkpointEvery,
		CheckpointBudget: *checkpointBudget,
		AuthKeys:         tenantCfgs,
		TenantDefaults: service.TenantLimits{
			MaxActive: *maxActive,
			Rate:      *submitRate,
			Burst:     *submitBurst,
		},
		MemLimit:        *memLimit,
		StoreRetain:     *storeRetain,
		StoreRetainAge:  *storeRetainAge,
		WatchdogStall:   *watchdogStall,
		WatchdogStrikes: *watchdogStrikes,
		Logger:          log,
	})
	if st != nil {
		log.Info("store recovered", "data_dir", *dataDir,
			"jobs", metrics.JobsRecovered.Load(), "requeued", metrics.JobRestarts.Load())
	}
	srv := service.NewServer(mgr)
	if err := srv.Start(*addr); err != nil {
		log.Error("listen failed", "addr", *addr, "err", err)
		os.Exit(1)
	}
	log.Info("listening", "url", "http://"+srv.Addr(), "workers", *workers, "queue", *queue)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	log.Info("shutting down", "grace", *grace)
	ctx, cancel := context.WithTimeout(context.Background(), *grace)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		log.Error("shutdown incomplete", "err", err)
		os.Exit(1)
	}
}
