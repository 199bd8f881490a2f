// Example client demonstrates the pkg/client Go SDK against an ifdkd
// server (or an ifdk-router fronting a fleet — the SDK cannot tell the
// difference): submit a reconstruction, follow its lifecycle over SSE with
// automatic reconnect, and reassemble the live multipart slice stream into
// a full volume, all through the versioned pkg/api contract.
//
// With -progressive the job is submitted at quality=progressive: the
// stream opens with a decimated preview volume (coarse slices tagged
// X-Preview-Factor) that renders immediately, then refines to the full
// resolution under the same job ID — the coarse-to-fine serving path.
//
//	go run ./examples/client                      # spins up an in-process server
//	go run ./examples/client -addr http://localhost:8080
//	go run ./examples/client -progressive -nx 64
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"time"

	"ifdk/internal/service"
	"ifdk/pkg/api"
	"ifdk/pkg/client"
)

func main() {
	addr := flag.String("addr", "", "ifdkd or ifdk-router base URL (empty = start an in-process server)")
	phantom := flag.String("phantom", "shepplogan", "phantom to scan: shepplogan | sphere | industrial")
	nx := flag.Int("nx", 32, "output voxels per side")
	prog := flag.Bool("progressive", false, "request coarse-to-fine delivery: preview tier first, then full resolution")
	flag.Parse()
	if err := run(*addr, *phantom, *nx, *prog); err != nil {
		fmt.Fprintln(os.Stderr, "client example:", err)
		os.Exit(1)
	}
}

func run(addr, phantom string, nx int, prog bool) error {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()

	if addr == "" {
		m := service.NewManager(service.Options{Workers: 2})
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		srv := &http.Server{Handler: service.NewServer(m)}
		go srv.Serve(ln)
		defer func() {
			shutCtx, c := context.WithTimeout(context.Background(), 30*time.Second)
			defer c()
			srv.Shutdown(shutCtx)
			m.Shutdown(shutCtx)
		}()
		addr = "http://" + ln.Addr().String()
		fmt.Println("in-process server on", addr)
	}

	c := client.New(addr)

	// 1. Submit. The SDK retries transient saturation (queue_full,
	// quota_exhausted, ...) with jittered backoff; hard errors surface as
	// *api.Error with a stable code.
	spec := api.Spec{Phantom: phantom, NX: nx, Verify: true, Client: "example"}
	if prog {
		spec.Quality = api.QualityProgressive
	}
	v, err := c.Submit(ctx, spec)
	if err != nil {
		return fmt.Errorf("submit: %w", err)
	}
	fmt.Printf("submitted %s (state %s, est %.3f model-sec, ~%d MiB working set)\n",
		v.ID, v.State, v.EstRunSec, v.EstBytes>>20)
	if v.CacheHit {
		fmt.Println("cache hit: an identical reconstruction was already done")
	}

	// 2. Watch the lifecycle over SSE. Watch survives dropped connections
	// by resuming with Last-Event-ID, so the callback sees every event
	// exactly once, in order.
	watchDone := make(chan error, 1)
	go func() {
		state, err := c.Watch(ctx, v.ID, func(e api.Event) error {
			switch e.Type {
			case api.EventStarted:
				fmt.Println("event: started")
			case api.EventRound:
				fmt.Printf("event: round %d/%d\r", e.Done, e.Total)
			case api.EventSlice:
				if e.Written == 1 {
					fmt.Printf("\nevent: first slice (z=%d) durable\n", e.Z)
				}
			}
			return nil
		})
		if err == nil {
			fmt.Println("watch: terminal state", state)
		}
		watchDone <- err
	}()

	// 3. Stream the slices live and reassemble the volume. The stream
	// starts mid-run: early slices arrive while later ones are still being
	// reconstructed. For a progressive job the preview tier's coarse slices
	// arrive first and reassemble into res.Preview; the full-resolution
	// slices that follow refine it into res.Volume.
	start := time.Now()
	var firstSlice, firstPreview time.Duration
	res, err := c.StreamProgressive(ctx, v.ID, client.StreamHooks{
		OnPreview: func(z, total, factor int) {
			if firstPreview == 0 {
				firstPreview = time.Since(start)
				fmt.Printf("stream: preview tier arriving (factor %d, %d coarse slices)\n", factor, total)
			}
		},
		OnSlice: func(z, total int) {
			if firstSlice == 0 {
				firstSlice = time.Since(start)
			}
		},
	})
	if err != nil {
		return fmt.Errorf("stream: %w", err)
	}
	if err := <-watchDone; err != nil {
		return fmt.Errorf("watch: %w", err)
	}
	if res.Final.State != api.StateDone {
		return fmt.Errorf("job ended %s: %s", res.Final.State, res.Final.Error)
	}

	vol := res.Volume
	s := vol.Summarize()
	fmt.Printf("volume: %dx%dx%d, voxels in [%.4f, %.4f], mean %.4f\n",
		vol.Nx, vol.Ny, vol.Nz, s.Min, s.Max, s.Mean)
	if res.Preview != nil {
		fmt.Printf("preview: %dx%dx%d at factor %d, first coarse slice at %v (%.0f%% of full volume)\n",
			res.Preview.Nx, res.Preview.Ny, res.Preview.Nz, res.PreviewFactor,
			firstPreview.Round(time.Millisecond),
			100*firstPreview.Seconds()/time.Since(start).Seconds())
	}
	fmt.Printf("delivery: first slice at %v, full volume at %v (%d slices, %.1f KiB of slice payload)\n",
		firstSlice.Round(time.Millisecond), time.Since(start).Round(time.Millisecond),
		res.Slices, float64(res.RawBytes)/1024)
	if res.Final.Verified {
		fmt.Printf("verified against serial FDK: relative RMSE %.2e (paper bound 1e-5)\n", res.Final.RelRMSE)
	}
	return nil
}
