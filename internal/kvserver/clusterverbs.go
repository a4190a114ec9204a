package kvserver

// The cluster verbs: HELLO/NODES for a daemon's join. A standalone Server
// answers both with an empty node set, so clients and peers never need to
// know whether an address is a bare cache or a cluster daemon. A daemon
// passes Serve its ClusterHooks, wired to its member set, and HELLO <addr>
// then registers the announcing peer and returns the node set, which is
// how a joiner learns the members its seed knows. A daemon's SET is stored
// locally only: the client writes each of a key's owners itself.

import (
	"fmt"
	"strconv"
	"strings"
)

// MaxClusterNodes bounds the node list in one NODES reply.
const MaxClusterNodes = 1024

// ClusterHooks connects a Server to the cluster daemon embedding it. Both
// methods are called synchronously from connection-handler goroutines and
// must return quickly.
type ClusterHooks interface {
	// Hello registers a peer that announced itself and returns the node
	// set known afterwards (the receiver included).
	Hello(addr string) []string
	// Nodes returns the known node set without registering anything.
	Nodes() []string
}

func (s *Server) doHello(sess *session, args [][]byte) error {
	if len(args) != 1 {
		return errBadArgs
	}
	addr := string(args[0])
	if !validNodeAddr(addr) {
		return errBadNodeAddr
	}
	var nodes []string
	if s.cluster != nil {
		nodes = s.cluster.Hello(addr)
	}
	return sess.writeNodes(nodes)
}

func (s *Server) doNodes(sess *session, args [][]byte) error {
	if len(args) != 0 {
		return errBadArgs
	}
	var nodes []string
	if s.cluster != nil {
		nodes = s.cluster.Nodes()
	}
	return sess.writeNodes(nodes)
}

// validNodeAddr accepts anything the line protocol can carry as a single
// field; real dialability is the join loop's problem, not the parser's.
// Both ends apply it: the server to a HELLO address, the client to each
// address in a NODES reply.
func validNodeAddr(addr string) bool {
	return addr != "" && len(addr) <= MaxKeyLen && !strings.ContainsAny(addr, " \r\n")
}

// writeNodes writes "NODES <n>\r\n" followed by one address per line.
func (sess *session) writeNodes(nodes []string) error {
	if len(nodes) > MaxClusterNodes {
		nodes = nodes[:MaxClusterNodes]
	}
	sess.w.WriteString("NODES ")
	sess.writeInt(int64(len(nodes)))
	_, err := sess.w.WriteString("\r\n")
	for _, n := range nodes {
		sess.w.WriteString(n)
		_, err = sess.w.WriteString("\r\n")
	}
	return err
}

// Hello announces addr as a cluster node to the server and returns the
// node set the server knows afterwards. Against a standalone server the
// reply is empty.
func (c *Client) Hello(addr string) ([]string, error) {
	if !validNodeAddr(addr) {
		return nil, fmt.Errorf("%w: invalid node address %q", errBadRequest, addr)
	}
	return c.readNodes(c.command("HELLO " + addr + "\r\n"))
}

// readNodes parses a NODES reply whose header line is line. An address the
// server would refuse on HELLO fails the whole reply: a peer must not be
// able to plant a member that a joiner would dial and list to its peers.
func (c *Client) readNodes(line string, err error) ([]string, error) {
	if err != nil {
		return nil, err
	}
	if !strings.HasPrefix(line, "NODES ") {
		return nil, fmt.Errorf("kvserver: NODES failed: %s", line)
	}
	n, err := strconv.Atoi(strings.TrimPrefix(line, "NODES "))
	if err != nil || n < 0 || n > MaxClusterNodes {
		return nil, fmt.Errorf("kvserver: bad NODES header %q", line)
	}
	nodes := make([]string, 0, n)
	for i := 0; i < n; i++ {
		addr, err := c.readLine()
		if err != nil {
			return nil, err
		}
		if !validNodeAddr(addr) {
			return nil, fmt.Errorf("kvserver: bad NODES address %q", addr)
		}
		nodes = append(nodes, addr)
	}
	return nodes, nil
}
