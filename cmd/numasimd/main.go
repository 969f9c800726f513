// Command numasimd serves simulations over HTTP: POST a JSON request naming
// a workload, policy, and machine config to /run and get back exactly the
// bytes `numasim -json` would print for the same flags. The server is built
// for long-running use — bounded admission with 429 backpressure, per-request
// deadlines propagated into the engine loop, a bounded content-addressed
// result cache, structured failure bodies with flight-recorder dumps, and a
// graceful SIGTERM drain.
//
// Usage:
//
//	numasimd -addr :8377 -workers 2 -queue 8
//	curl -d '{"workload":"engineering","policy":"migrep"}' localhost:8377/run
//
// On SIGTERM or SIGINT the server stops admitting (503), sheds its queue,
// waits for in-flight simulations up to -drain-timeout, and exits 0 when the
// drain was clean.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"ccnuma/internal/serve"
)

func main() {
	var (
		addr     = flag.String("addr", ":8377", "listen address (host:port; :0 picks a free port)")
		workers  = flag.Int("workers", 2, "simulations running concurrently")
		queue    = flag.Int("queue", 8, "admitted requests waiting beyond the workers; past it, 429")
		entries  = flag.Int("cache", 64, "result cache entries (LRU; -1 disables)")
		reqTO    = flag.Duration("request-timeout", 60*time.Second, "per-request deadline, queue wait included")
		drainTO  = flag.Duration("drain-timeout", 30*time.Second, "SIGTERM drain deadline for in-flight runs")
		recDepth = flag.Int("recorder-depth", 64, "flight-recorder events kept for failure bodies")
		quiet    = flag.Bool("quiet", false, "suppress per-request logging")
	)
	flag.Parse()

	logger := log.New(os.Stderr, "numasimd: ", log.LstdFlags)
	logf := logger.Printf
	if *quiet {
		logf = nil
	}
	srv := serve.New(serve.Config{
		Workers:        *workers,
		QueueDepth:     *queue,
		CacheEntries:   *entries,
		RequestTimeout: *reqTO,
		DrainTimeout:   *drainTO,
		RecorderDepth:  *recDepth,
		Logf:           logf,
	})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		logger.Fatal(err)
	}
	// The resolved address goes to stdout (the only stdout line) so scripts
	// binding to :0 can scrape the port.
	fmt.Printf("listening on %s\n", ln.Addr())
	hs := &http.Server{Handler: srv.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	select {
	case got := <-sig:
		logger.Printf("%v: draining", got)
	case err := <-serveErr:
		logger.Fatal(err)
	}

	clean := srv.Shutdown()
	// App-level drain done; now close the listener and connections. The
	// handlers have already answered, so a short deadline suffices.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil {
		logger.Printf("http shutdown: %v", err)
	}
	if !clean {
		logger.Print("drain was not clean (stragglers cancelled); exiting 1")
		os.Exit(1)
	}
	logger.Print("drained cleanly")
}
