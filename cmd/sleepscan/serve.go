package main

// The serve subcommand runs the live query layer over a monitored campaign:
// a crash-tolerant monitor (as in `sleepscan monitor`) publishes every
// committed round into the epoch engine, and a hardened HTTP server answers
// per-block availability, streaming diurnal class, and sleep-hour queries
// while probing is still underway.
//
//	GET /v1/status            serving posture (never shed)
//	GET /v1/block/10.2.3      one block's state
//	GET /v1/blocks?prefix=10.2&down=true&limit=100
//	GET /v1/summary           full-world rollup
//
// Overload is explicit: per-class token buckets shed with 429/503 and
// Retry-After (summaries first, single-block lookups last), responses carry
// X-Sleepnet-Epoch / X-Sleepnet-Stale-Rounds, and a quarantined or dead
// monitor flips X-Sleepnet-Degraded while the last good epoch keeps
// serving. After the campaign ends the server lingers until interrupted.

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"syscall"

	"sleepnet/internal/monitor"
	"sleepnet/internal/serve"
)

func runServe(argv []string) {
	fs := flag.NewFlagSet("sleepscan serve", flag.ExitOnError)
	c := campaignFlags(fs)
	listen := fs.String("listen", "127.0.0.1:8080", "HTTP listen address")
	_ = fs.Parse(argv) // ExitOnError: Parse never returns an error

	cfg, stopTick := c.monitorConfig()
	defer stopTick()
	eng := serve.NewEngine(serve.EngineConfig{Metrics: c.reg})
	cfg.Sink = eng
	m, err := monitor.New(cfg)
	fatal(explainWALError(err, *c.walDir))

	ln, err := net.Listen("tcp", *listen)
	fatal(err)
	srv := serve.NewServer(eng, serve.ServerConfig{Metrics: c.reg})
	srvCtx, srvStop := context.WithCancel(context.Background())
	defer srvStop()
	srvDone := make(chan error, 1)
	go func() { srvDone <- srv.Serve(srvCtx, ln) }()
	fmt.Printf("serving on http://%s (503 until the first epoch seals)\n", ln.Addr())

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	fmt.Printf("monitoring %d blocks across %d shards for %d rounds\n",
		m.NumBlocks(), m.NumShards(), *c.rounds)
	res, err := m.Run(ctx)
	stop()

	switch {
	case err == nil && res.Completed:
		fmt.Printf("campaign complete (%d shard restarts); final epoch %d\n",
			res.Restarts, eng.Status().Epoch)
	case err == nil && res.Drained:
		fmt.Printf("drained cleanly (%d shard restarts); last epoch %d stays served\n",
			res.Restarts, eng.Status().Epoch)
		eng.SetDegraded()
	case errors.Is(err, monitor.ErrQuarantine), errors.Is(err, monitor.ErrWatchdog):
		// The monitor died but the last good epoch is still queryable:
		// degraded mode, explicit in every response header.
		fmt.Fprintf(os.Stderr, "monitor failed: %v — serving last epoch degraded\n", err)
		eng.SetDegraded()
	default:
		fatal(explainWALError(err, *c.walDir))
		fmt.Printf("stopped without completing (%d shards quarantined); serving degraded\n",
			len(res.Quarantined))
		eng.SetDegraded()
	}

	fmt.Println("serving until interrupt (ctrl-c to exit)")
	linger, lingerStop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	<-linger.Done()
	lingerStop()
	srvStop()
	fatal(<-srvDone)

	c.dumpMetrics()
}
