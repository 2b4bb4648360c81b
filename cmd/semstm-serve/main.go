// Command semstm-serve runs the networked semantic store: named keyspaces
// over a sharded (optionally durable) runtime, with per-shard commit
// coalescing and a Prometheus-style /metrics endpoint.
//
//	semstm-serve                                   # volatile, 8 shards, batching on
//	semstm-serve -addr :7070 -metrics :7071
//	semstm-serve -algo S-TL2 -shards 16 -nobatch
//	semstm-serve -dir /var/lib/semstm -fsync interval
//
// The wire protocol is newline-delimited JSON, one transaction per line:
//
//	{"id":1,"ops":[{"op":"inc","ks":"acct","key":5,"val":2}]}
//
// Send a request with any line-oriented TCP client, e.g.
//
//	printf '%s\n' '{"id":1,"ops":[{"op":"read","ks":"acct","key":5}]}' | nc 127.0.0.1 7070
//
// and generate load with `bash bench/run.sh --workload serve-tcp`.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"semstm/internal/server"
	"semstm/stm"
)

func main() {
	var (
		addr     = flag.String("addr", "127.0.0.1:7070", "wire-protocol listen address")
		metrics  = flag.String("metrics", "127.0.0.1:7071", "metrics listen address (\"\" disables)")
		algoName = flag.String("algo", "S-NOrec", "engine family: NOrec, S-NOrec, TL2, S-TL2, SGL")
		shards   = flag.Int("shards", 8, "runtime shard count")
		nobatch  = flag.Bool("nobatch", false, "disable the per-shard coalescing batcher")
		maxBatch = flag.Int("maxbatch", 64, "max requests per batch window")
		dir      = flag.String("dir", "", "write-ahead log directory (\"\" = volatile)")
		fsync    = flag.String("fsync", "interval", "durable fsync policy: always, interval, none")
	)
	flag.Parse()

	var algo stm.Algorithm
	found := false
	for _, a := range stm.Algorithms() {
		if strings.EqualFold(a.String(), *algoName) {
			algo, found = a, true
			break
		}
	}
	if !found {
		fmt.Fprintf(os.Stderr, "semstm-serve: unknown algorithm %q\n", *algoName)
		os.Exit(2)
	}

	store, err := server.Open(server.Config{
		Algo:       algo,
		Shards:     *shards,
		DurableDir: *dir,
		Fsync:      *fsync,
		Batching:   !*nobatch,
		MaxBatch:   *maxBatch,
	})
	if err != nil {
		// Open fails only on what the flags asked for: an engine that
		// cannot be sharded, a bad fsync policy, an unusable log directory.
		fmt.Fprintf(os.Stderr, "semstm-serve: %v\n", err)
		os.Exit(2)
	}
	srv, err := server.Serve(store, *addr, *metrics)
	if err != nil {
		fmt.Fprintf(os.Stderr, "semstm-serve: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("semstm-serve: %s on %s (shards=%d batching=%v", algo, srv.Addr(), *shards, !*nobatch)
	if *dir != "" {
		fmt.Printf(" durable=%s fsync=%s", *dir, *fsync)
	}
	fmt.Println(")")
	if m := srv.MetricsAddr(); m != "" {
		fmt.Printf("semstm-serve: metrics on http://%s/metrics\n", m)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("semstm-serve: shutting down")
	if err := srv.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "semstm-serve: close: %v\n", err)
	}
	if err := store.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "semstm-serve: store close: %v\n", err)
		os.Exit(1)
	}
}
