package circus

import (
	"context"
	"fmt"
	"math"
	"sync"
	"testing"
	"time"
)

func TestParseSpecAndSolve(t *testing.T) {
	spec, err := ParseSpec(`troupe(x, y) where x.fast and y.fast`)
	if err != nil {
		t.Fatal(err)
	}
	if spec.Degree() != 2 {
		t.Fatalf("degree = %d", spec.Degree())
	}
	universe := []Machine{
		{Name: "a", Attrs: map[string]Value{"fast": true}},
		{Name: "b", Attrs: map[string]Value{"fast": false}},
		{Name: "c", Attrs: map[string]Value{"fast": true}},
	}
	got, err := SolveSpec(spec, universe)
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{got[0].Name: true, got[1].Name: true}
	if !names["a"] || !names["c"] {
		t.Fatalf("solved %v", names)
	}
	ext, err := ExtendTroupe(spec, universe, []Machine{universe[2]})
	if err != nil {
		t.Fatal(err)
	}
	keep := false
	for _, m := range ext {
		if m.Name == "c" {
			keep = true
		}
	}
	if !keep {
		t.Fatal("extension displaced the survivor")
	}
}

// spawnerOnSim exports fresh counter modules on per-machine nodes.
type spawnerOnSim struct {
	nodes map[string]*Node
}

func (s *spawnerOnSim) Spawn(m Machine, name string) (ModuleAddr, error) {
	n, ok := s.nodes[m.Name]
	if !ok {
		return ModuleAddr{}, fmt.Errorf("no node for %s", m.Name)
	}
	return n.ExportLocal(name, &counter{}), nil
}

func (s *spawnerOnSim) Stop(addr ModuleAddr) error { return nil }

func TestConfigManagerFacade(t *testing.T) {
	w := newWorld(t, 23)
	sp := &spawnerOnSim{nodes: map[string]*Node{}}
	var universe []Machine
	for _, name := range []string{"m1", "m2", "m3"} {
		sp.nodes[name] = w.node()
		universe = append(universe, Machine{Name: name, Attrs: map[string]Value{"up": true}})
	}
	home := w.node()
	mgr := NewConfigManager(sp, home, universe)
	tr, err := mgr.Configure(context.Background(), "svc",
		`troupe(x, y) where x.up and y.up`)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Degree() != 2 {
		t.Fatalf("degree = %d", tr.Degree())
	}
	stub, err := home.Import(context.Background(), "svc")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := stub.Call(context.Background(), 1, []byte("cfg")); err != nil {
		t.Fatalf("call through configured troupe: %v", err)
	}
}

func TestAvailabilityFacade(t *testing.T) {
	if a := Availability(3, 1, 9); math.Abs(a-0.999) > 1e-9 {
		t.Fatalf("Availability = %v", a)
	}
	if r := RequiredRepairTime(3, 1, 0.999); math.Abs(r-1.0/9) > 1e-9 {
		t.Fatalf("RequiredRepairTime = %v", r)
	}
	if a := SimulateAvailability(2, 1, 9, 50000, 1); math.Abs(a-Availability(2, 1, 9)) > 0.01 {
		t.Fatalf("SimulateAvailability = %v", a)
	}
}

// TestExplicitReplicationFacade replays the thermostat scenario as a
// test: a sensor client troupe with divergent arguments collated by an
// averaging server (§7.4, Figure 7.7).
func TestExplicitReplicationFacade(t *testing.T) {
	w := newWorld(t, 24)

	ctrlNode := w.node()
	avg := ModuleFunc(func(call *ServerCall, proc uint16, args []byte) ([]byte, error) {
		var sum float64
		var n int
		for _, a := range call.Args() {
			var v float64
			if err := Unmarshal(a, &v); err != nil {
				return nil, err
			}
			sum += v
			n++
		}
		return Marshal(sum / float64(n))
	})
	if _, err := ctrlNode.Export("ctrl", avg, WithDivergentArgs()); err != nil {
		t.Fatal(err)
	}

	var sensors []*Node
	var addrs []ModuleAddr
	for i := 0; i < 3; i++ {
		n := w.node()
		sensors = append(sensors, n)
		addrs = append(addrs, n.ExportLocal("sensor", &counter{}))
	}
	id, err := sensors[0].Binder().Register(context.Background(), "sensors", addrs)
	if err != nil {
		t.Fatal(err)
	}

	readings := []float64{10, 20, 60}
	results := make([]float64, 3)
	var wg sync.WaitGroup
	for i, n := range sensors {
		i, n := i, n
		wg.Add(1)
		go func() {
			defer wg.Done()
			stub, err := n.Import(context.Background(), "ctrl")
			if err != nil {
				t.Errorf("import: %v", err)
				return
			}
			arg, _ := Marshal(readings[i])
			res, err := stub.Call(context.Background(), 1, arg,
				AsTroupe(id), WithThread(ReplicaThread(42, 7)))
			if err != nil {
				t.Errorf("sensor %d: %v", i, err)
				return
			}
			Unmarshal(res, &results[i])
		}()
	}
	wg.Wait()
	for i, r := range results {
		if r != 30 {
			t.Fatalf("sensor %d got %v, want 30", i, r)
		}
	}
}

func TestNodeContextThreads(t *testing.T) {
	sim := NewSimNetwork(25)
	n, err := sim.NewNode()
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	t1 := n.NewThread()
	t2 := n.NewThread()
	if t1.ID() == t2.ID() {
		t.Fatal("two root threads share an ID")
	}
}

func TestPartitionFacade(t *testing.T) {
	w := newWorld(t, 26)
	server := w.node()
	if _, err := server.Export("p", &counter{}); err != nil {
		t.Fatal(err)
	}
	client := w.node()
	stub, err := client.Import(context.Background(), "p")
	if err != nil {
		t.Fatal(err)
	}
	// Separate client from server (binder stays with the server so the
	// import above keeps working for the other side).
	w.sim.Partition([]*Node{client}, []*Node{server})
	_, err = stub.Call(context.Background(), 1, nil, WithTimeout(time.Second))
	if err == nil {
		t.Fatal("call crossed a partition")
	}
	w.sim.Heal()
	if _, err := stub.Call(context.Background(), 1, nil); err != nil {
		t.Fatalf("call after heal: %v", err)
	}
}

// TestMetricsSnapshotTables: a node's metrics snapshot reports the
// at-most-once state its runtime and message layer hold.
func TestMetricsSnapshotTables(t *testing.T) {
	w := newWorld(t, 23)
	server := w.node(WithMetrics())
	if _, err := server.Export("tables", &counter{}); err != nil {
		t.Fatal(err)
	}
	stub, err := w.node().Import(context.Background(), "tables")
	if err != nil {
		t.Fatal(err)
	}
	const calls = 5
	for i := 0; i < calls; i++ {
		if _, err := stub.Call(context.Background(), 1, []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	// Lower bounds: the binding agent called the member too
	// (set_troupe_id). A call is buried before its reply is sent, so
	// nothing is live once the last reply is in.
	tab := server.Metrics().Snapshot().Tables
	if tab.LiveCalls != 0 || tab.CallTombstones < calls || tab.CompletedRecords < calls {
		t.Fatalf("tables = %+v after %d calls", tab, calls)
	}
}
