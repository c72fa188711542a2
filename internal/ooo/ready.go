package ooo

// Wakeup-driven issue select. Instead of re-checking every reservation
// station entry each cycle, an entry counts its not-ready source registers at
// rename (ROBEntry.waiting) and registers as a dependent of each one. Every
// write that sets physReg.ready (writeReg) wakes the register's dependents;
// an entry whose count reaches zero joins readyQ. issue() walks only readyQ.
//
// Invariant (checked cycle by cycle in ready_test.go): between steps, readyQ
// holds exactly the unissued ROB entries whose sources are all ready, in Seq
// order. Seq order is dispatch order, so the candidate lists issue builds —
// and hands to SelectOverride — are the ones a full RS scan would build.
//
// Dependent lists live in one CPU-owned node pool (depNodes, recycled through
// depFree), so the steady state allocates nothing. Lists link by pool index;
// depNodes[0] is a reserved sentinel, so index 0 ends a list and the zero
// physReg has no dependents. A node names its entry by pointer and Seq:
// entries recycle through the entry pool, and a node whose entry was
// squashed, committed or reused (inactive, or a different Seq) is stale and
// skipped when its register wakes. Squash rebuilds readyQ from the surviving
// ROB entries, whose counts stay exact: a survivor's producers are older
// than it, so they survive too.

// depNode is one wakeup registration on a physical register's list.
type depNode struct {
	e    *ROBEntry
	seq  uint64
	next int32 // next node in the list (or in the free list); 0 ends it
}

// waitOn registers e as a dependent of p when p is not yet ready.
func (c *CPU) waitOn(e *ROBEntry, p int) {
	if c.regs[p].ready {
		return
	}
	e.waiting++
	n := depNode{e: e, seq: e.Seq, next: c.regs[p].deps}
	i := c.depFree
	if i != 0 {
		c.depFree = c.depNodes[i].next
		c.depNodes[i] = n
	} else {
		i = int32(len(c.depNodes))
		c.depNodes = append(c.depNodes, n)
	}
	c.regs[p].deps = i
}

// dropDependents returns p's dependent list to the node pool. With wake set,
// each live dependent's wait count drops, and entries reaching zero join
// readyQ.
func (c *CPU) dropDependents(p int, wake bool) {
	for i := c.regs[p].deps; i != 0; {
		n := &c.depNodes[i]
		e, seq, next := n.e, n.seq, n.next
		*n = depNode{next: c.depFree}
		c.depFree = i
		i = next
		if wake && e.active && e.Seq == seq && !e.Issued {
			e.waiting--
			if e.waiting == 0 {
				c.enqueueReady(e)
			}
		}
	}
	c.regs[p].deps = 0
}

// enqueueReady inserts e into readyQ in Seq order. Wakeups mostly ready
// young entries, so the search runs from the tail.
func (c *CPU) enqueueReady(e *ROBEntry) {
	q := append(c.readyQ, e)
	i := len(q) - 1
	for ; i > 0 && q[i-1].Seq > e.Seq; i-- {
		q[i] = q[i-1]
	}
	q[i] = e
	c.readyQ = q
}

// allocReg takes a free physical register for a new producer: not ready, with
// an empty dependent list (any nodes left on it belong to squashed consumers).
func (c *CPU) allocReg() int {
	p := c.freeList[len(c.freeList)-1]
	c.freeList = c.freeList[:len(c.freeList)-1]
	c.dropDependents(p, false)
	c.regs[p] = physReg{}
	return p
}

// writeReg makes v the value of p and wakes p's dependents. It is the only
// place a physical register becomes ready after allocation.
func (c *CPU) writeReg(p int, v uint64) {
	c.dropDependents(p, true)
	c.regs[p] = physReg{value: v, ready: true, readyAt: c.cycle}
}

// dropIssued removes issued entries from list in place, preserving order and
// zeroing the vacated tail.
func dropIssued(list []*ROBEntry) []*ROBEntry {
	out := list[:0]
	for _, e := range list {
		if !e.Issued {
			out = append(out, e)
		}
	}
	clearEntryTail(list, len(out))
	return out
}
