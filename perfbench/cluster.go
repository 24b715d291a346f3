package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"net"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/report"
	"repro/internal/server"
	"repro/internal/wire"
)

// Cluster node ids. The ring hashes ids only, so key ownership is a
// pure function of these names and the key.
var nodeIDs = []string{"a", "b"}

// keyOwnedBy finds a routing key for stream idx that the two-node ring
// assigns to owner and the owner's engine routes to shard (of shards;
// the engine hashes keyed streams with FNV-1a), so a plan decides up
// front which streams are served where they land, which are relayed,
// and that two concurrently live streams never queue on one shard. A
// negative shard accepts any.
func keyOwnedBy(v *cluster.View, rec *recording, idx int, owner string, shard, shards int) string {
	for n := 0; ; n++ {
		k := fmt.Sprintf("%s/%d/%d/%d", rec.workload, rec.seed, idx, n)
		if m, ok := v.Owner(k); !ok || m.ID != owner {
			continue
		}
		h := fnv.New64a()
		h.Write([]byte(k))
		if shard < 0 || h.Sum64()%uint64(shards) == uint64(shard%shards) {
			return k
		}
	}
}

// peersSpec renders the -peers flag for the given nodes.
func peersSpec(wire, http []string) string {
	parts := make([]string, len(nodeIDs))
	for i, id := range nodeIDs {
		parts[i] = fmt.Sprintf("%s=%s+%s", id, wire[i], http[i])
	}
	return strings.Join(parts, ",")
}

// viewPusher plays a cluster peer: it sends token-authenticated Assign
// frames carrying ever-newer views, exactly as a node's probe does.
type viewPusher struct {
	token   string
	members []cluster.Member
	epoch   uint64
}

func newViewPusher(spec string) (*viewPusher, error) {
	ms, err := cluster.ParsePeers(spec)
	if err != nil {
		return nil, err
	}
	return &viewPusher{token: cluster.DeriveToken(ms), members: ms, epoch: 1}, nil
}

// next builds the next view over the members with the given ids.
func (p *viewPusher) next(ids ...string) wire.Assignment {
	p.epoch++
	a := wire.Assignment{Epoch: p.epoch, RingVersion: p.epoch, Origin: "perfbench", Token: p.token}
	for _, m := range p.members {
		for _, id := range ids {
			if m.ID == id {
				a.Nodes = append(a.Nodes, wire.NodeInfo{ID: m.ID, Addr: m.Addr, HTTPAddr: m.HTTPAddr})
			}
		}
	}
	return a
}

// push delivers a view to one node and checks that the node's reply
// shows it in force.
func (p *viewPusher) push(addr string, a wire.Assignment) error {
	c, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return err
	}
	defer c.Close()
	_ = c.SetDeadline(time.Now().Add(10 * time.Second))
	if err := wire.NewFramer(c, 1).WriteAssign(a); err != nil {
		return err
	}
	d := wire.NewDeframer(c)
	d.ExpectAssigns()
	fr, err := d.ReadFrame()
	if err != nil {
		return err
	}
	if fr.Type != wire.FrameAssign || fr.Assign.Epoch != a.Epoch {
		return fmt.Errorf("view push to %s: reply %s epoch %d, want epoch %d", addr, fr.Type, fr.Assign.Epoch, a.Epoch)
	}
	return nil
}

// verifyClusterReport fetches the scatter-gather /report from one node
// and byte-compares its merged section with an in-process
// report.SortSamples + MergeSamples over the samples the phase served.
func verifyClusterReport(d *daemon, served []*report.Sample) error {
	body, err := d.get("/report")
	if err != nil {
		return err
	}
	var cr server.ClusterReport
	if err := json.Unmarshal(body, &cr); err != nil {
		return err
	}
	want := append([]*report.Sample(nil), served...)
	report.SortSamples(want)
	got, _ := json.Marshal(cr.Merged)
	exp, _ := json.Marshal(report.MergeSamples(want))
	if !bytes.Equal(got, exp) {
		return fmt.Errorf("merged cluster /report differs from the in-process merge of %d samples", len(served))
	}
	n := 0
	for _, node := range cr.Nodes {
		if node.Err != "" {
			return fmt.Errorf("cluster /report: node %s: %s", node.ID, node.Err)
		}
		n += node.Samples
	}
	if n != len(served) {
		return fmt.Errorf("cluster /report holds %d samples, the phase served %d", n, len(served))
	}
	return nil
}

// metricSum adds every series of a /metrics family whose name (labels
// included) starts with prefix.
func metricSum(m map[string]float64, prefix string) float64 {
	var s float64
	for k, v := range m {
		if strings.HasPrefix(k, prefix) {
			s += v
		}
	}
	return s
}
