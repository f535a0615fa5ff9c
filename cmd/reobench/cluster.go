package main

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"regexp"
	"strings"
	"time"

	"github.com/reo-cache/reo/internal/harness"
	"github.com/reo-cache/reo/internal/transport"
	"github.com/reo-cache/reo/internal/workload"
)

// clusterArgs carries the -cluster* flag values into runCluster.
type clusterArgs struct {
	shards       int
	addrs        string
	reotargetBin string
	churn        bool
	remote       bool
	workers      int
	conns        int
	layout       string // the -flash-layout value, passed on to spawned reotargets
	batch        int
}

// runCluster replays the selected experiment's workload against an N-shard
// cluster behind the consistent-hash initiator. Three shard placements are
// supported: in-process stores (default), loopback wire servers (-remote),
// and external reotarget processes (-cluster-addrs, or spawned here via
// -reotarget-bin). -remote without -cluster is one loopback wire shard. The
// replay byte-verifies every object's final content and prints a
// shard-count-independent digest: the same trace must print the same digest
// at -cluster 1, -remote and -cluster N.
func runCluster(experiment string, opts harness.Options, args clusterArgs) error {
	loc := locality(experiment)
	if args.shards < 1 && args.addrs == "" {
		args.shards = 1
	}
	spec := harness.ClusterSpec{
		Shards:  args.shards,
		Remote:  args.remote,
		Workers: args.workers,
		Conns:   args.conns,
		Churn:   args.churn,
		Batch:   args.batch,
	}
	if args.addrs != "" {
		spec.Addrs = strings.Split(args.addrs, ",")
	}

	if args.reotargetBin != "" && len(spec.Addrs) == 0 {
		addrs, stop, err := spawnTargets(args.reotargetBin, loc, spec.Shards, args.layout, opts)
		if err != nil {
			return err
		}
		defer stop()
		spec.Addrs = addrs
	}

	mode := "in-process"
	switch {
	case len(spec.Addrs) > 0:
		mode = "multi-process"
	case spec.Remote:
		mode = "loopback wire"
	}

	start := time.Now()
	res, err := harness.ClusterThroughput(loc, opts, spec)
	if err != nil {
		return err
	}
	w := table(fmt.Sprintf("== Cluster replay: %d shards (%s), %s locality ==", res.Shards, mode, loc))
	fmt.Fprintln(w, "shards\tworkers\trequests\thit ratio\tthroughput\tdata\telapsed")
	fmt.Fprintf(w, "%d\t%d\t%d\t%.1f%%\t%.0f ops/s\t%.1f MB\t%v\n",
		res.Shards, res.Workers, res.Requests, res.HitRatioPct(), res.OpsPerSec(),
		float64(res.Bytes)/1e6, res.Elapsed.Round(time.Millisecond))
	if err := w.Flush(); err != nil {
		return err
	}
	fmt.Printf("content digest: %016x (verified %d, mismatched %d)\n",
		res.Digest, res.Verified, res.Mismatched)
	w = table("-- per-shard routing --")
	fmt.Fprintln(w, "shard\tobjects\tops\tbytes in\tbytes out")
	for _, sc := range res.PerShard {
		fmt.Fprintf(w, "%s\t%d\t%d\t%.1f MB\t%.1f MB\n",
			sc.Name, sc.Objects, sc.Ops, float64(sc.BytesIn)/1e6, float64(sc.BytesOut)/1e6)
	}
	if err := w.Flush(); err != nil {
		return err
	}
	if args.churn {
		fmt.Printf("membership churn: migrated %d objects / %.1f MB\n",
			res.MigratedObjects, float64(res.MigratedBytes)/1e6)
	}
	fmt.Printf("[cluster completed in %v]\n", time.Since(start).Round(time.Millisecond))
	if opts.OpStats != nil {
		fmt.Printf("-- per-op latency (cluster, wall clock) --\n%s", opts.OpStats)
		if spec.Batch > 1 {
			fmt.Printf("batch routing: %+v fan-out width %.2f\n", res.Batch, res.Batch.FanoutWidth())
		}
		if mode != "in-process" {
			ws := transport.SnapshotWireStats()
			fmt.Printf("wire: %+v bytes/flush %.0f sub-ops/batch PDU %.2f\n",
				ws, ws.BytesPerFlush(), ws.SubOpsPerBatch())
		}
		fmt.Println()
	}
	if res.Mismatched > 0 {
		return fmt.Errorf("cluster replay: %d objects failed byte verification", res.Mismatched)
	}
	return nil
}

var servingLine = regexp.MustCompile(`serving .* on (\S+)`)

// spawnTargets launches n reotarget processes on ephemeral ports, each with
// the flash layout, device capacity and chunk size of an in-process shard of
// the same replay, and returns their addresses once each reports it is
// serving. The returned stop function terminates them all.
func spawnTargets(bin string, loc workload.Locality, n int, layout string, opts harness.Options) (addrs []string, stop func(), err error) {
	var procs []*exec.Cmd
	stop = func() {
		for _, p := range procs {
			if p.Process != nil {
				_ = p.Process.Kill()
			}
			_ = p.Wait()
		}
	}
	defer func() {
		if err != nil {
			stop()
		}
	}()
	capacity, chunk, err := opts.ShardDevice(loc, n)
	if err != nil {
		return nil, stop, err
	}
	for i := 0; i < n; i++ {
		cmd := exec.Command(bin,
			"-listen", "127.0.0.1:0",
			"-devices", "5",
			"-capacity", fmt.Sprintf("%d", capacity),
			"-chunk", fmt.Sprintf("%d", chunk),
			"-policy", "reo-40",
			"-flash-layout", layout,
		)
		cmd.Stderr = os.Stderr
		out, perr := cmd.StdoutPipe()
		if perr != nil {
			return nil, stop, perr
		}
		if serr := cmd.Start(); serr != nil {
			return nil, stop, fmt.Errorf("spawning %s: %w", bin, serr)
		}
		procs = append(procs, cmd)
		sc := bufio.NewScanner(out)
		addr := ""
		for sc.Scan() {
			if m := servingLine.FindStringSubmatch(sc.Text()); m != nil {
				addr = m[1]
				break
			}
		}
		if addr == "" {
			return nil, stop, fmt.Errorf("reotarget %d: no serving line before stdout closed", i)
		}
		// Drain the rest of stdout so the child never blocks on a full pipe.
		go func() {
			for sc.Scan() {
			}
		}()
		addrs = append(addrs, addr)
	}
	return addrs, stop, nil
}
