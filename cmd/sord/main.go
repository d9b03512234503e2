// Command sord runs a SOR node: a sensing server (leader or replica) or
// a cluster router. A leader registers the six canonical Syracuse target
// places as applications, prints their 2D barcodes' payloads, and serves
// the binary-over-HTTP protocol on -addr, plus the ops surface:
// /debug/metrics (JSON metrics snapshot), /debug/trace (recent request
// spans), /debug/replica (replication status), /debug/cluster (on a
// router), and /debug/pprof.
//
// Usage:
//
//	sord -addr :8080 [-stream-addr :8081] [-data-dir sor-data] [-barcodes]
//	sord -addr :8082 -data-dir node-b -role replica -node-id node-b \
//	     -leader-url http://localhost:8080 [-max-replica-lag 5s]
//	sord -addr :8090 -role router -node-id router-0 -cluster cluster.json
//
// With -stream-addr the server additionally accepts persistent device
// streams (the session transport): one framed TCP connection per phone
// multiplexing uploads, acks, schedule pushes, epoch invalidations, and
// wake-ups, carrying the same wire payloads the HTTP endpoint does.
//
// With -data-dir the server is durable: a checkpointed snapshot plus a
// write-ahead log of every mutation since, recovered on startup. Without
// it state is in-memory and dies with the process.
//
// A durable leader ships its WAL to any follower that pulls, pins log
// retention per acked follower, and serves snapshot-ship resync
// sessions. A -role replica node bootstraps from its own data directory,
// streams the leader's log, serves rank reads (refusing them past
// -max-replica-lag), and refuses writes; if the leader has compacted
// past it, the node automatically refetches the leader's snapshot over
// the wire and rejoins — no operator data-dir copying. With -cluster and
// -shard a member also registers itself in the shared cluster map so
// routers can find it; a -role router node forwards phone traffic to the
// owning shard's leader by app category, failing over to promoted
// standbys it discovers through heartbeats.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"sor"
	"sor/internal/barcode"
	"sor/internal/fieldtest"
	"sor/internal/world"
)

func main() {
	if err := run(os.Args[1:]); err != nil && !errors.Is(err, flag.ErrHelp) {
		log.SetFlags(0)
		log.Fatalf("sord: %v", err)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("sord", flag.ContinueOnError)
	addr := fs.String("addr", ":8080", "listen address")
	streamAddr := fs.String("stream-addr", "", "listen address for persistent device streams (empty = HTTP only)")
	dataDir := fs.String("data-dir", "", "directory for durable state (snapshot + write-ahead log)")
	showBarcodes := fs.Bool("barcodes", false, "print each place's 2D barcode as ASCII art")
	public := fs.String("public-url", "", "base URL phones should use (default http://<addr>)")
	spanBuffer := fs.Int("span-buffer", 0, "trace ring capacity (default 4096)")
	role := fs.String("role", sor.RoleLeader, "node role: leader (serves writes and ships its WAL), replica (streams a leader, serves reads), or router (forwards to shard leaders)")
	nodeID := fs.String("node-id", "", "this node's cluster identity (default: hostname)")
	leaderURL := fs.String("leader-url", "", "leader base URL (required with -role replica)")
	clusterMap := fs.String("cluster", "", "cluster map file (required for -role router; on a member, registers it for routers)")
	shard := fs.String("shard", "", "shard this member serves (required with -cluster on a member)")
	advertise := fs.String("advertise", "", "address other nodes dial to reach this one (default http://localhost<addr>)")
	pullInterval := fs.Duration("pull-interval", 0, "replica pull/heartbeat cadence while caught up (0 = default)")
	maxReplicaLag := fs.Duration("max-replica-lag", 0, "replica refuses rank queries past this silence from the leader (0 = serve regardless)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	switch *role {
	case sor.RoleLeader, sor.RoleReplica, sor.RoleRouter:
	default:
		return fmt.Errorf("unknown -role %q (leader|replica|router)", *role)
	}
	if *nodeID == "" {
		if host, err := os.Hostname(); err == nil {
			*nodeID = host
		} else {
			*nodeID = "node"
		}
	}
	storageDesc := "in-memory state (set -data-dir for durability)"
	if *dataDir != "" {
		storageDesc = fmt.Sprintf("durable state in %s (snapshot + WAL)", *dataDir)
	}
	node := sor.Node{
		Name:          *nodeID,
		Role:          *role,
		Listen:        *addr,
		StreamListen:  *streamAddr,
		Data:          *dataDir,
		Cluster:       *clusterMap,
		Shard:         *shard,
		Advertise:     *advertise,
		Leader:        *leaderURL,
		MaxReplicaLag: *maxReplicaLag,
		PullInterval:  *pullInterval,
		Observer:      sor.NewObserver(sor.WithTracer(sor.NewTracer(*spanBuffer))),
		Mux:           http.NewServeMux(),
	}

	// The Visualization module (§II-B): /charts?category=coffee-shop
	// renders the current feature data as inline SVG bar charts. Mounted
	// through Node.Mux so it shares the node's listener; rn is bound
	// after StartNode, before the listener can receive traffic routed
	// here by a human.
	var rn *sor.RunningNode
	if *role != sor.RoleRouter {
		node.Mux.HandleFunc("/charts", func(w http.ResponseWriter, r *http.Request) {
			category := r.URL.Query().Get("category")
			if category == "" {
				category = world.CategoryCoffee
			}
			srv := rn.Server()
			if srv == nil {
				http.Error(w, "resyncing from the leader", http.StatusServiceUnavailable)
				return
			}
			if *role == sor.RoleLeader {
				// A replica's features arrive via the replicated log; folding
				// here would write to its own.
				srv.Processor().Process()
			}
			charts, err := srv.Charts(category)
			if err != nil {
				http.Error(w, err.Error(), http.StatusNotFound)
				return
			}
			w.Header().Set("Content-Type", "text/html; charset=utf-8")
			fmt.Fprintf(w, "<!DOCTYPE html><html><head><title>SOR feature data</title></head><body><h1>%s</h1>\n", category)
			for _, c := range charts {
				svg, err := c.SVG(480, 320)
				if err != nil {
					continue
				}
				fmt.Fprintln(w, svg)
			}
			fmt.Fprintln(w, "</body></html>")
		})
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rn, err := sor.StartNode(ctx, node)
	if err != nil {
		return err
	}
	if *role != sor.RoleRouter {
		log.Print(storageDesc)
	}

	baseURL := *public
	if baseURL == "" {
		baseURL = "http://localhost" + *addr
	}
	switch *role {
	case sor.RoleLeader:
		// A replica never registers apps itself: every mutation, including
		// app creation, arrives through the replicated log. A router holds
		// no apps at all.
		if err := registerCanonicalApps(rn.Server(), baseURL, *showBarcodes); err != nil {
			_ = rn.Close()
			return err
		}
		log.Printf("leader %s listening on %s (endpoints %s, /charts, %s, %s, %s, /debug/pprof)",
			*nodeID, rn.Addr(), sor.ServerPath, sor.MetricsPath, sor.TracePath, sor.ReplicaDebugPath)
	case sor.RoleReplica:
		log.Printf("replica %s following %s on %s (pull interval %s, max lag %s)",
			*nodeID, *leaderURL, rn.Addr(), *pullInterval, *maxReplicaLag)
	case sor.RoleRouter:
		log.Printf("router %s listening on %s (endpoints %s, %s, %s, %s, /debug/pprof)",
			*nodeID, rn.Addr(), sor.ServerPath, sor.MetricsPath, sor.TracePath, sor.ClusterDebugPath)
	}
	if a := rn.StreamAddr(); a != "" {
		log.Printf("device stream endpoint listening on %s", a)
	}

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	// A replica's resyncs are automatic and invisible; only a replication
	// supervisor that gave up entirely (Err) should bring the node down.
	ticker := time.NewTicker(time.Second)
	defer ticker.Stop()
	for {
		select {
		case sig := <-sigCh:
			log.Printf("received %s, shutting down", sig)
			return rn.Close()
		case <-ticker.C:
			if err := rn.Err(); err != nil {
				_ = rn.Close()
				return fmt.Errorf("replication stopped: %w", err)
			}
		}
	}
}

// registerCanonicalApps creates the six paper field-test applications
// (idempotent over recovered state) and prints their join barcodes.
func registerCanonicalApps(srv *sor.Server, baseURL string, showBarcodes bool) error {
	w, err := world.Canonical()
	if err != nil {
		return err
	}
	type appDef struct {
		id, place, category, script string
	}
	apps := []appDef{
		{"hiking-trail-1", world.GreenLakeTrail, world.CategoryTrail, fieldtest.TrailScript},
		{"hiking-trail-2", world.LongTrail, world.CategoryTrail, fieldtest.TrailScript},
		{"hiking-trail-3", world.CliffTrail, world.CategoryTrail, fieldtest.TrailScript},
		{"coffee-shop-1", world.TimHortons, world.CategoryCoffee, fieldtest.CoffeeScript},
		{"coffee-shop-2", world.BNCafe, world.CategoryCoffee, fieldtest.CoffeeScript},
		{"coffee-shop-3", world.Starbucks, world.CategoryCoffee, fieldtest.CoffeeScript},
	}
	for _, a := range apps {
		place, err := w.Place(a.place)
		if err != nil {
			return err
		}
		err = srv.CreateApp(sor.Application{
			ID:        a.id,
			Creator:   "sord",
			Category:  a.category,
			Place:     a.place,
			Lat:       place.Loc.Lat,
			Lon:       place.Loc.Lon,
			RadiusM:   place.RadiusM,
			Script:    a.script,
			PeriodSec: 10800,
		})
		if err != nil {
			// Recovered state may already contain the apps.
			log.Printf("app %s: %v (continuing)", a.id, err)
			continue
		}
		code, err := barcode.Encode(barcode.Payload{AppID: a.id, Place: a.place, Server: baseURL})
		if err != nil {
			return err
		}
		log.Printf("registered %-16s -> %s (barcode: %dx%d modules)", a.id, a.place, code.Size, code.Size)
		if showBarcodes {
			fmt.Println(code.ASCII())
		}
	}
	return nil
}
