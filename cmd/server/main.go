// Command server is the TCP front door: it opens a fresh in-memory
// database and serves the length-delimited SQL wire protocol, one session
// per connection. Statements from all connections contend inside the
// engine exactly like concurrent Go-API statements — per-table lock
// footprints, the §3.1 concurrent-delete protocol, and the cancellation
// machinery.
//
// Usage:
//
//	server                                  # listen on 127.0.0.1:7878
//	server -addr :7878 -devices 4
//
// SIGINT/SIGTERM shut down gracefully: the listener closes, in-flight
// statements finish, and connected clients are waited for up to -drain;
// past the deadline every session context is cancelled and the remaining
// statements abort to consistency. A second signal forces immediate
// cancellation.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"bulkdel"
	"bulkdel/internal/session"
	"bulkdel/internal/wire"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7878", "listen address")
	devices := flag.Int("devices", 1, "simulated disk devices (≥2 enables parallel index passes)")
	drain := flag.Duration("drain", 10*time.Second, "graceful shutdown deadline before in-flight statements are cancelled")
	flag.Parse()

	db, err := bulkdel.Open(bulkdel.Options{Devices: *devices})
	if err != nil {
		fmt.Fprintln(os.Stderr, "open:", err)
		os.Exit(1)
	}
	srv := wire.NewServer(session.NewFrontend(db))
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "listen:", err)
		os.Exit(1)
	}
	fmt.Printf("listening on %s (devices=%d)\n", ln.Addr(), *devices)

	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	sig := make(chan os.Signal, 2)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	select {
	case err := <-serveErr:
		fmt.Fprintln(os.Stderr, "serve:", err)
		os.Exit(1)
	case s := <-sig:
		fmt.Printf("%v: draining (up to %v; signal again to cancel in-flight statements)\n", s, *drain)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	go func() {
		<-sig
		cancel() // second signal: expire the drain deadline now
	}()
	if err := srv.Shutdown(ctx); err != nil {
		fmt.Println("forced shutdown: in-flight statements cancelled")
	} else {
		fmt.Println("drained cleanly")
	}
	cancel()

	// The engine must come down with nothing in flight.
	if rep := db.Inspect(); len(rep.Statements) != 0 {
		fmt.Fprintf(os.Stderr, "leaked statements at shutdown: %+v\n", rep.Statements)
		os.Exit(1)
	}
}
