package kvserver

import (
	"reflect"
	"sync"
	"testing"
)

// fakeHooks records ClusterHooks calls so tests can assert exactly what
// the server fans out — and, critically, what it does NOT (RSET must
// never cascade).
type fakeHooks struct {
	mu    sync.Mutex
	hello []string
	nodes []string
	sets  map[string][]byte
}

func newFakeHooks(nodes ...string) *fakeHooks {
	return &fakeHooks{nodes: nodes, sets: make(map[string][]byte)}
}

func (f *fakeHooks) Hello(addr string) []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.hello = append(f.hello, addr)
	return f.nodes
}

func (f *fakeHooks) Nodes() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.nodes
}

func (f *fakeHooks) ReplicateSet(key string, value []byte) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.sets[key] = append([]byte(nil), value...)
}

func (f *fakeHooks) snapshot() (sets map[string][]byte, hello []string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	sets = make(map[string][]byte, len(f.sets))
	for k, v := range f.sets {
		sets[k] = v
	}
	return sets, append([]string(nil), f.hello...)
}

func serveWithHooks(t *testing.T, hooks ClusterHooks) (*Server, *Client) {
	t.Helper()
	srv := serve(t, 1<<10, nil, hooks)
	return srv, dial(t, srv)
}

func TestStandaloneServerAnswersClusterVerbs(t *testing.T) {
	_, c := serveWithHooks(t, nil)
	nodes, err := c.readNodes(c.command("NODES\r\n"))
	if err != nil || len(nodes) != 0 {
		t.Fatalf("standalone NODES = %v, %v; want empty, nil", nodes, err)
	}
	nodes, err = c.Hello("127.0.0.1:9999")
	if err != nil || len(nodes) != 0 {
		t.Fatalf("standalone HELLO = %v, %v; want empty, nil", nodes, err)
	}
	// RSET behaves as SET on a standalone server.
	if err := c.RSet("k", []byte("v")); err != nil {
		t.Fatalf("RSet: %v", err)
	}
	v, ok, err := c.Get("k")
	if err != nil || !ok || string(v) != "v" {
		t.Fatalf("Get after RSet = %q, %v, %v", v, ok, err)
	}
}

func TestClusterHooksFanOutAndGossip(t *testing.T) {
	hooks := newFakeHooks("127.0.0.1:1", "127.0.0.1:2")
	_, c := serveWithHooks(t, hooks)

	nodes, err := c.readNodes(c.command("NODES\r\n"))
	if err != nil || !reflect.DeepEqual(nodes, hooks.nodes) {
		t.Fatalf("NODES = %v, %v; want %v", nodes, err, hooks.nodes)
	}
	nodes, err = c.Hello("127.0.0.1:3")
	if err != nil || !reflect.DeepEqual(nodes, hooks.nodes) {
		t.Fatalf("HELLO reply = %v, %v; want %v", nodes, err, hooks.nodes)
	}
	if _, err := c.Hello("bad addr with spaces"); err == nil {
		t.Fatal("HELLO with a space-bearing address did not error")
	}

	// SET (alone and pipelined) reaches the hooks; RSET must not (the
	// fan-out is acyclic by construction).
	if err := c.Set("a", []byte("1")); err != nil {
		t.Fatal(err)
	}
	p := c.Pipeline()
	p.Set("b", []byte("2"))
	p.Set("c", []byte("3"))
	if _, err := p.Exec(); err != nil {
		t.Fatal(err)
	}
	if err := c.RSet("r", []byte("4")); err != nil {
		t.Fatal(err)
	}

	sets, hello := hooks.snapshot()
	want := map[string][]byte{"a": []byte("1"), "b": []byte("2"), "c": []byte("3")}
	if !reflect.DeepEqual(sets, want) {
		t.Fatalf("replicated sets = %v, want %v (RSET must not cascade)", sets, want)
	}
	if !reflect.DeepEqual(hello, []string{"127.0.0.1:3"}) {
		t.Fatalf("hello announcements = %v, want [127.0.0.1:3]", hello)
	}
}

// TestNodesReplyRejectsInvalidAddress: a NODES or HELLO reply listing an
// address HELLO itself would refuse fails as a whole, so a peer cannot
// plant a member the line protocol cannot carry.
func TestNodesReplyRejectsInvalidAddress(t *testing.T) {
	for _, bad := range []string{"", "has space", "has\rcarriage"} {
		_, c := serveWithHooks(t, newFakeHooks("127.0.0.1:1", bad))
		if nodes, err := c.readNodes(c.command("NODES\r\n")); err == nil {
			t.Errorf("NODES listing %q = %q, want an error", bad, nodes)
		}
		_, c = serveWithHooks(t, newFakeHooks("127.0.0.1:1", bad))
		if nodes, err := c.Hello("127.0.0.1:2"); err == nil {
			t.Errorf("HELLO reply listing %q = %q, want an error", bad, nodes)
		}
	}
}
