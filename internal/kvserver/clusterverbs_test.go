package kvserver

import (
	"reflect"
	"sync"
	"testing"
)

// fakeHooks records ClusterHooks calls so tests can assert exactly what
// reaches the daemon's membership machinery.
type fakeHooks struct {
	mu    sync.Mutex
	hello []string
	nodes []string
}

func newFakeHooks(nodes ...string) *fakeHooks {
	return &fakeHooks{nodes: nodes}
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

func (f *fakeHooks) hellos() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]string(nil), f.hello...)
}

func serveWithHooks(t *testing.T, hooks ClusterHooks) *Client {
	t.Helper()
	return dial(t, serve(t, 1<<10, nil, hooks))
}

func TestStandaloneServerAnswersClusterVerbs(t *testing.T) {
	c := serveWithHooks(t, nil)
	nodes, err := c.readNodes(c.command("NODES\r\n"))
	if err != nil || len(nodes) != 0 {
		t.Fatalf("standalone NODES = %v, %v; want empty, nil", nodes, err)
	}
	nodes, err = c.Hello("127.0.0.1:9999")
	if err != nil || len(nodes) != 0 {
		t.Fatalf("standalone HELLO = %v, %v; want empty, nil", nodes, err)
	}
}

// TestClusterHooksGossipWithoutFanOut: HELLO and NODES reach the hooks,
// and a SET, alone or pipelined, is stored on the server it was sent to
// with nothing passed to the daemon: the client replicates.
func TestClusterHooksGossipWithoutFanOut(t *testing.T) {
	hooks := newFakeHooks("127.0.0.1:1", "127.0.0.1:2")
	c := serveWithHooks(t, hooks)

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

	if err := c.Set("a", []byte("1")); err != nil {
		t.Fatal(err)
	}
	p := c.Pipeline()
	p.Set("b", []byte("2"))
	p.Set("c", []byte("3"))
	if _, err := p.Exec(); err != nil {
		t.Fatal(err)
	}
	for k, want := range map[string]string{"a": "1", "b": "2", "c": "3"} {
		if v, ok, err := c.Get(k); err != nil || !ok || string(v) != want {
			t.Fatalf("Get(%q) = %q, %v, %v; want %q stored locally", k, v, ok, err, want)
		}
	}
	if hello := hooks.hellos(); !reflect.DeepEqual(hello, []string{"127.0.0.1:3"}) {
		t.Fatalf("hello announcements = %v, want [127.0.0.1:3]", hello)
	}
}

// TestNodesReplyRejectsInvalidAddress: a NODES or HELLO reply listing an
// address HELLO itself would refuse fails as a whole, so a peer cannot
// plant a member the line protocol cannot carry.
func TestNodesReplyRejectsInvalidAddress(t *testing.T) {
	for _, bad := range []string{"", "has space", "has\rcarriage"} {
		c := serveWithHooks(t, newFakeHooks("127.0.0.1:1", bad))
		if nodes, err := c.readNodes(c.command("NODES\r\n")); err == nil {
			t.Errorf("NODES listing %q = %q, want an error", bad, nodes)
		}
		c = serveWithHooks(t, newFakeHooks("127.0.0.1:1", bad))
		if nodes, err := c.Hello("127.0.0.1:2"); err == nil {
			t.Errorf("HELLO reply listing %q = %q, want an error", bad, nodes)
		}
	}
}
