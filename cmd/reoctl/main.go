// Command reoctl is the client CLI for a running reotarget: object IO,
// classification and query control messages, and the failure/recovery
// operations the paper's evaluation performs.
//
// Usage:
//
//	reoctl -addr 127.0.0.1:9700 put 0x10010 -class cold < file
//	reoctl -addr 127.0.0.1:9700 get 0x10010 > file
//	reoctl -addr 127.0.0.1:9700 classify 0x10010 hot
//	reoctl -addr 127.0.0.1:9700 query 0x10010
//	reoctl -addr 127.0.0.1:9700 status 0x10010
//	reoctl -addr 127.0.0.1:9700 stats
//	reoctl -addr 127.0.0.1:9700 segments
//	reoctl -addr 127.0.0.1:9700 tune policy.read.degraded.hedge.delay 0.0002
//	reoctl -addr 127.0.0.1:9700 tune policy.read.degraded.hedge.max 2
//	reoctl -addr 127.0.0.1:9700 fail 0
//	reoctl -addr 127.0.0.1:9700 spare 0
//	reoctl -addr 127.0.0.1:9700 recover
//
// Cluster membership (consistent-hash sharding across reotargets):
//
//	reoctl cluster -addrs 127.0.0.1:9700,127.0.0.1:9701 status
//	reoctl cluster -addrs 127.0.0.1:9700,127.0.0.1:9701 owner 0x10010
//	reoctl cluster -addrs 127.0.0.1:9700,127.0.0.1:9701 add 127.0.0.1:9702
//	reoctl cluster -addrs 127.0.0.1:9700,127.0.0.1:9701,127.0.0.1:9702 remove 127.0.0.1:9701
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"github.com/reo-cache/reo/internal/osd"
	"github.com/reo-cache/reo/internal/transport"
)

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "reoctl:", err)
		os.Exit(1)
	}
}

func run(args []string, stdin io.Reader, stdout io.Writer) error {
	fs := flag.NewFlagSet("reoctl", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:9700", "target address")
	if err := fs.Parse(args); err != nil {
		return err
	}
	rest := fs.Args()
	if len(rest) == 0 {
		return errors.New("missing command (put|get|del|classify|query|status|stats|segments|tune|fail|spare|recover|cluster)")
	}
	if rest[0] == "cluster" {
		return runCluster(rest[1:], stdout)
	}
	client, err := transport.Dial(*addr)
	if err != nil {
		return err
	}
	defer client.Close()
	return dispatch(client, rest, stdin, stdout)
}

func dispatch(client *transport.Client, args []string, stdin io.Reader, stdout io.Writer) error {
	cmd, rest := args[0], args[1:]
	switch cmd {
	case "put":
		if len(rest) < 1 {
			return errors.New("put <oid> [-class hot|cold|dirty|metadata]")
		}
		id, err := parseOID(rest[0])
		if err != nil {
			return err
		}
		class := osd.ClassColdClean
		dirty := false
		if len(rest) >= 3 && rest[1] == "-class" {
			class, err = parseClass(rest[2])
			if err != nil {
				return err
			}
			dirty = class == osd.ClassDirty
		}
		data, err := io.ReadAll(stdin)
		if err != nil {
			return err
		}
		cost, err := client.PutCtx(nil, id, data, class, dirty)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "put %v: %d bytes, class %v, device time %v\n", id, len(data), class, cost)
		return nil
	case "get":
		id, err := oneOID(rest, "get")
		if err != nil {
			return err
		}
		data, cost, degraded, err := client.GetCtx(nil, id)
		if err != nil {
			return err
		}
		if _, err := stdout.Write(data); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "get %v: %d bytes, degraded=%v, device time %v\n", id, len(data), degraded, cost)
		return nil
	case "patch":
		if len(rest) != 2 {
			return errors.New("patch <oid> <offset>  (data on stdin)")
		}
		id, err := parseOID(rest[0])
		if err != nil {
			return err
		}
		offset, err := strconv.ParseInt(rest[1], 10, 64)
		if err != nil {
			return fmt.Errorf("bad offset %q", rest[1])
		}
		data, err := io.ReadAll(stdin)
		if err != nil {
			return err
		}
		cost, err := client.WriteRangeCtx(nil, id, offset, data)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "patch %v: %d bytes at %d, device time %v\n", id, len(data), offset, cost)
		return nil
	case "del":
		id, err := oneOID(rest, "del")
		if err != nil {
			return err
		}
		if err := client.DeleteCtx(nil, id); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "deleted %v\n", id)
		return nil
	case "classify":
		if len(rest) != 2 {
			return errors.New("classify <oid> <metadata|dirty|hot|cold>")
		}
		id, err := parseOID(rest[0])
		if err != nil {
			return err
		}
		class, err := parseClass(rest[1])
		if err != nil {
			return err
		}
		sense, err := client.ControlCtx(nil, osd.SetIDCommand{Object: id, Class: class})
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "classify %v -> %v: sense %#x (%v)\n", id, class, int(sense), sense)
		return nil
	case "query":
		id, err := oneOID(rest, "query")
		if err != nil {
			return err
		}
		sense, err := client.ControlCtx(nil, osd.QueryCommand{Object: id, Op: osd.OpRead, Size: 1})
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "query %v: sense %#x (%v)\n", id, int(sense), sense)
		return nil
	case "status":
		id, err := oneOID(rest, "status")
		if err != nil {
			return err
		}
		status, err := client.StatusCtx(nil, id)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "status %v: %v\n", id, status)
		return nil
	case "stats":
		stats, err := client.TargetStats()
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "objects:          %d\n", stats.Objects)
		fmt.Fprintf(stdout, "used:             %d / %d bytes\n", stats.UsedBytes, stats.RawCapacity)
		fmt.Fprintf(stdout, "space efficiency: %.1f%%\n", stats.SpaceEfficiency*100)
		fmt.Fprintf(stdout, "devices:          %d/%d alive\n", stats.AliveDevices, stats.Devices)
		fmt.Fprintf(stdout, "recovery:         active=%v queue=%d\n", stats.RecoveryActive, stats.RecoveryQueue)
		return nil
	case "segments":
		stats, err := client.SegStats()
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "dev  layout    state     segs  util    garbage  writtenMB  gcMB   erases  wear    WA\n")
		for i, ds := range stats {
			util := 0.0
			if ds.CapacityBytes > 0 {
				util = float64(ds.LiveBytes+ds.GarbageBytes) / float64(ds.CapacityBytes)
			}
			fmt.Fprintf(stdout, "%-4d %-9v %-9v %-5d %-7.1f%% %-7.1f%% %-10.2f %-6.2f %-7d %-7.4f %.3f\n",
				i, ds.Layout, ds.State, ds.Segments, util*100, ds.GarbageRatio()*100,
				float64(ds.BytesWritten)/(1<<20), float64(ds.GCBytesWritten)/(1<<20),
				ds.SegmentErases, ds.WearCycles, ds.WriteAmp())
		}
		return nil
	case "tune":
		if len(rest) != 2 {
			return errors.New("tune policy.read.degraded.hedge.<delay|max> <value>")
		}
		value, err := strconv.ParseFloat(rest[1], 64)
		if err != nil {
			return fmt.Errorf("bad tune value %q", rest[1])
		}
		if err := client.Tune(rest[0], value); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "tuned %s = %g\n", rest[0], value)
		return nil
	case "fail":
		idx, err := oneIndex(rest, "fail")
		if err != nil {
			return err
		}
		if err := client.FailDevice(idx); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "device %d failed (shootdown)\n", idx)
		return nil
	case "spare":
		idx, err := oneIndex(rest, "spare")
		if err != nil {
			return err
		}
		queued, err := client.InsertSpare(idx)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "spare inserted in slot %d: %d objects queued for recovery\n", idx, queued)
		return nil
	case "recover":
		total := 0
		for {
			_, n, done, err := client.RecoverStepCtx(nil, 32)
			if err != nil {
				return err
			}
			total += n
			if done {
				break
			}
		}
		fmt.Fprintf(stdout, "recovery complete: %d objects rebuilt\n", total)
		return nil
	default:
		return fmt.Errorf("unknown command %q", cmd)
	}
}

func oneOID(rest []string, cmd string) (osd.ObjectID, error) {
	if len(rest) != 1 {
		return osd.ObjectID{}, fmt.Errorf("%s <oid>", cmd)
	}
	return parseOID(rest[0])
}

func oneIndex(rest []string, cmd string) (int, error) {
	if len(rest) != 1 {
		return 0, fmt.Errorf("%s <device-index>", cmd)
	}
	idx, err := strconv.Atoi(rest[0])
	if err != nil {
		return 0, fmt.Errorf("bad device index %q", rest[0])
	}
	return idx, nil
}

// parseOID accepts "0x10010", "pid:oid", or a decimal user-object number.
func parseOID(s string) (osd.ObjectID, error) {
	if pid, oid, ok := strings.Cut(s, ":"); ok {
		p, err := parseU64(pid)
		if err != nil {
			return osd.ObjectID{}, err
		}
		o, err := parseU64(oid)
		if err != nil {
			return osd.ObjectID{}, err
		}
		return osd.ObjectID{PID: p, OID: o}, nil
	}
	o, err := parseU64(s)
	if err != nil {
		return osd.ObjectID{}, err
	}
	return osd.ObjectID{PID: osd.FirstPID, OID: o}, nil
}

func parseU64(s string) (uint64, error) {
	if strings.HasPrefix(s, "0x") {
		return strconv.ParseUint(s[2:], 16, 64)
	}
	return strconv.ParseUint(s, 10, 64)
}

func parseClass(s string) (osd.Class, error) {
	switch strings.ToLower(s) {
	case "metadata":
		return osd.ClassMetadata, nil
	case "dirty":
		return osd.ClassDirty, nil
	case "hot":
		return osd.ClassHotClean, nil
	case "cold":
		return osd.ClassColdClean, nil
	default:
		return 0, fmt.Errorf("unknown class %q", s)
	}
}
