package kvserver

// The cluster verbs: HELLO/NODES for membership gossip and RSET for
// replica writes. A standalone Server answers all three (HELLO and NODES
// report an empty node set; RSET behaves like SET), so clients and
// peers never need to know whether an address is a bare cache or a
// cluster daemon. A daemon passes Serve its ClusterHooks, wired to its
// membership and replication machinery, and the server becomes one node of
// a replicated tier:
//
//   - a client-initiated SET is stored locally and then handed to
//     ClusterHooks for synchronous fan-out to the key's other ring owners
//     (sent as RSET so the fan-out never cascades);
//   - HELLO <addr> registers the announcing peer and returns the node set,
//     which is how daemons learn topology instead of being handed a static
//     list.

import (
	"fmt"
	"strconv"
	"strings"
)

// MaxClusterNodes bounds the node list in one NODES reply.
const MaxClusterNodes = 1024

// ClusterHooks connects a Server to the cluster daemon embedding it. Every
// method is called synchronously from connection-handler goroutines:
// Hello/Nodes must return quickly, and ReplicateSet runs on the SET's
// critical path (the client's STORED reply waits for the fan-out, which is
// what makes a replicated SET readable from every owner as soon as it
// returns).
type ClusterHooks interface {
	// Hello registers a peer that announced itself and returns the node
	// set known afterwards (the receiver included).
	Hello(addr string) []string
	// Nodes returns the known node set without registering anything.
	Nodes() []string
	// ReplicateSet fans a client-initiated store out to the key's other
	// ring owners. Implementations must not call back into this server's
	// own client-facing verbs.
	ReplicateSet(key string, value []byte)
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
// field; real dialability is the gossip layer's problem, not the parser's.
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
// able to plant a member that every gossip round would dial and spread.
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

// RSet stores value under key as a replica write: the server never fans it
// back out, which is what keeps daemon-to-daemon replication acyclic.
func (c *Client) RSet(key string, value []byte) error {
	c.one.rset(key, value)
	_, err := c.one.execOne()
	return err
}
