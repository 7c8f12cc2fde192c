package main

import (
	"context"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro"
)

// runRoute runs the cluster router until SIGINT/SIGTERM: a stateless
// consistent-hash front tier over the -members fleet. Unlike -serve
// there is no engine here — detector state lives only on the members —
// so draining is just stopping the listener; a router restart loses
// nothing but the in-memory migration overrides (re-migrate, or restart
// members so the ring owns everything again, to converge). The bound
// address is announced in a structured "routing" log record (addr=...)
// like -serve's "serving" record.
func runRoute(addr, members string, replicas int, debugAddr string, logger *slog.Logger) error {
	var list []string
	for _, m := range strings.Split(members, ",") {
		if m = strings.TrimSpace(m); m != "" {
			list = append(list, m)
		}
	}
	if len(list) == 0 {
		return fmt.Errorf("-route requires -members (comma-separated member base URLs)")
	}
	rt, err := repro.NewRouter(repro.RouterConfig{
		Members:  list,
		Replicas: replicas,
		Logger:   logger,
	})
	if err != nil {
		return err
	}

	stopDebug, err := startDebug(debugAddr, logger)
	if err != nil {
		return err
	}
	defer stopDebug()

	// Handler before announcement, as in runServe.
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	logger.Info("routing", "addr", "http://"+ln.Addr().String(), "members", len(list))

	httpSrv := &http.Server{Handler: rt}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()

	select {
	case err := <-errc:
		return err
	case sig := <-stop:
		logger.Info("draining router", "signal", sig.String())
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		return httpSrv.Shutdown(ctx)
	}
}
