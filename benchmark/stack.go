package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	"ifdk/internal/router"
	"ifdk/internal/service"
	"ifdk/pkg/client"
)

// daemon is one in-process ifdkd: a Manager behind a real listener.
type daemon struct {
	node string
	m    *service.Manager
	srv  *http.Server
	url  string
}

// stack is the serving stack of one round, booted in-process the way the
// commands wire it: service.NewManager + service.NewServer per daemon with
// default Options (one worker, so a job owns the cores), and for a fleet
// workload router.New in front of two daemons. Clients reach it only over
// HTTP, through pkg/client.
type stack struct {
	daemons []*daemon
	rt      *router.Router
	rtSrv   *http.Server
	base    string // what clients talk to: the router, or the only daemon

	retries atomic.Int64 // SDK retries of saturation codes, all clients
}

func listenAndServe(h http.Handler) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	srv := &http.Server{Handler: h}
	go func() { _ = srv.Serve(ln) }() // ends with ErrServerClosed at Shutdown
	return srv, "http://" + ln.Addr().String(), nil
}

func bootStack(fleet bool) (*stack, error) {
	s := &stack{}
	nodes := []string{""}
	if fleet {
		nodes = []string{"b0", "b1"}
	}
	for _, node := range nodes {
		m := service.NewManager(service.Options{Workers: 1, NodeID: node})
		srv, url, err := listenAndServe(service.NewServer(m))
		if err != nil {
			s.close()
			return nil, err
		}
		s.daemons = append(s.daemons, &daemon{node: node, m: m, srv: srv, url: url})
	}
	s.base = s.daemons[0].url
	if fleet {
		var bs []router.Backend
		for _, d := range s.daemons {
			bs = append(bs, router.Backend{Name: d.node, URL: d.url})
		}
		rt, err := router.New(router.Options{Backends: bs})
		if err != nil {
			s.close()
			return nil, err
		}
		s.rt = rt
		srv, url, err := listenAndServe(rt)
		if err != nil {
			s.close()
			return nil, err
		}
		s.rtSrv, s.base = srv, url
	}
	return s, nil
}

// client builds an SDK client for url whose retries are counted.
func (s *stack) client(url string) *client.Client {
	return client.New(url, client.WithRetry(client.Retry{
		OnRetry: func(string, int, time.Duration) { s.retries.Add(1) },
	}))
}

// owner finds the daemon that ran a job from the node prefix of its ID.
func (s *stack) owner(jobID string) *daemon {
	for _, d := range s.daemons {
		if d.node != "" && strings.HasPrefix(jobID, d.node+"-") {
			return d
		}
	}
	return s.daemons[0]
}

// close stops the listeners and managers and waits for them.
func (s *stack) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	// Every client here (the SDK's, the router's proxies) rides on
	// http.DefaultTransport, which dials ahead and parks connections that
	// never carried a request; Server.Shutdown waits five seconds for each
	// of those unless the client side hangs up first.
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
	var errs []error
	if s.rtSrv != nil {
		errs = append(errs, s.rtSrv.Shutdown(ctx))
	}
	if s.rt != nil {
		s.rt.Close()
	}
	for _, d := range s.daemons {
		errs = append(errs, d.srv.Shutdown(ctx), d.m.Shutdown(ctx))
	}
	if err := errors.Join(errs...); err != nil {
		return fmt.Errorf("stack shutdown: %w", err)
	}
	return nil
}
