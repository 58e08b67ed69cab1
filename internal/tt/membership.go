package tt

// Membership is one node's view of which cluster nodes are currently
// operational — core service C4 (consistent diagnosis of failing nodes).
// Because the medium is a broadcast bus and every correct node sees the same
// frame stream, correct nodes' membership views agree; the consistency tests
// in this package assert exactly that.
//
// The per-sender records live in dense slices indexed by NodeID — Record is
// on the per-slot hot path of every receiver.
type Membership struct {
	nodes     []NodeID
	lastOK    []int64 // indexed by NodeID, -1 = never
	lastSeen  []int64
	failCount []int
}

// NewMembership creates a view covering the given nodes.
func NewMembership(nodes []NodeID) *Membership {
	size := 0
	for _, n := range nodes {
		if int(n)+1 > size {
			size = int(n) + 1
		}
	}
	m := &Membership{
		nodes:     append([]NodeID(nil), nodes...),
		lastOK:    make([]int64, size),
		lastSeen:  make([]int64, size),
		failCount: make([]int, size),
	}
	m.reset()
	return m
}

// reset forgets every observation: no node seen yet.
func (m *Membership) reset() {
	for i := range m.lastOK {
		m.lastOK[i] = -1
		m.lastSeen[i] = -1
	}
	clear(m.failCount)
}

// Record notes the observed status of sender's frame in the given round.
func (m *Membership) Record(sender NodeID, round int64, st FrameStatus) {
	if sender < 0 || int(sender) >= len(m.lastSeen) {
		return
	}
	m.lastSeen[sender] = round
	if st == FrameOK {
		m.lastOK[sender] = round
	} else {
		m.failCount[sender]++
	}
}

// Member reports whether node n is considered operational as of the given
// round: its most recent observed frame was correct.
func (m *Membership) Member(n NodeID, round int64) bool {
	if n < 0 || int(n) >= len(m.lastSeen) {
		return false
	}
	seen := m.lastSeen[n]
	if seen < 0 {
		return false
	}
	return m.lastOK[n] == seen
}

// LastOK returns the last round in which node n's frame was received
// correctly, or -1.
func (m *Membership) LastOK(n NodeID) int64 {
	if n < 0 || int(n) >= len(m.lastOK) {
		return -1
	}
	return m.lastOK[n]
}

// Failures returns the cumulative count of failed frames observed from n.
func (m *Membership) Failures(n NodeID) int {
	if n < 0 || int(n) >= len(m.failCount) {
		return 0
	}
	return m.failCount[n]
}

// Vector returns the membership bit per node (in the node order supplied at
// construction) as of the given round.
func (m *Membership) Vector(round int64) []bool {
	v := make([]bool, len(m.nodes))
	for i, n := range m.nodes {
		v[i] = m.Member(n, round)
	}
	return v
}

// Agrees reports whether two membership views coincide for the given round.
func (m *Membership) Agrees(other *Membership, round int64) bool {
	if len(m.nodes) != len(other.nodes) {
		return false
	}
	a, b := m.Vector(round), other.Vector(round)
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
