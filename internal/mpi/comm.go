package mpi

import (
	"fmt"
	"sort"
)

// Comm is a communicator: an isolated communication context over an ordered
// group of ranks. Each communicator owns two context ids: ctx for
// point-to-point traffic and ctx+1 for collective-internal traffic, so user
// messages can never match collective plumbing.
type Comm struct {
	proc   *Proc
	ctx    uint32
	group  []int // comm rank -> world rank
	myRank int   // this proc's rank within the communicator

	worldIdx map[int]int // world rank -> comm rank
}

func (c *Comm) buildIndex() {
	c.worldIdx = make(map[int]int, len(c.group))
	for cr, wr := range c.group {
		c.worldIdx[wr] = cr
	}
}

// Rank returns the calling process's rank in this communicator.
func (c *Comm) Rank() int { return c.myRank }

// Size returns the number of ranks in this communicator.
func (c *Comm) Size() int { return len(c.group) }

// Ctx returns the communicator's point-to-point context id. The checkpoint
// layer uses it as part of message signatures.
func (c *Comm) Ctx() uint32 { return c.ctx }

// Proc returns the owning process.
func (c *Comm) Proc() *Proc { return c.proc }

// Group returns a copy of the comm-rank to world-rank mapping.
func (c *Comm) Group() []int { return append([]int(nil), c.group...) }

// WorldRank translates a communicator rank to a world rank.
func (c *Comm) WorldRank(commRank int) (int, error) {
	if commRank < 0 || commRank >= len(c.group) {
		return 0, fmt.Errorf("%w: rank %d out of range [0,%d)", ErrInvalid, commRank, len(c.group))
	}
	return c.group[commRank], nil
}

func (c *Comm) worldToComm(worldRank int) (int, bool) {
	cr, ok := c.worldIdx[worldRank]
	return cr, ok
}

// collCtx is the context id for collective-internal messages.
func (c *Comm) collCtx() uint32 { return c.ctx + 1 }

// allocCtx allocates a fresh context-id pair, agreed collectively: rank 0 of
// this communicator reads-and-advances the world counter and broadcasts the
// result. All members must call it together (it is collective).
func (c *Comm) allocCtx() (uint32, error) {
	var id uint32
	if c.myRank == 0 {
		id = c.proc.world.ctxCounter
		c.proc.world.ctxCounter += 2
	}
	buf := make([]byte, 4)
	if c.myRank == 0 {
		buf[0] = byte(id)
		buf[1] = byte(id >> 8)
		buf[2] = byte(id >> 16)
		buf[3] = byte(id >> 24)
	}
	buf, err := bcast(nativePlane{c}, buf, len(buf), 0, kCtxAlloc)
	if err != nil {
		return 0, err
	}
	id = uint32(buf[0]) | uint32(buf[1])<<8 | uint32(buf[2])<<16 | uint32(buf[3])<<24
	return id, nil
}

// Dup creates a duplicate communicator with the same group but a fresh
// context. Collective over c.
func (c *Comm) Dup() (*Comm, error) {
	id, err := c.allocCtx()
	if err != nil {
		return nil, err
	}
	nc := &Comm{
		proc:   c.proc,
		ctx:    id,
		group:  append([]int(nil), c.group...),
		myRank: c.myRank,
	}
	nc.buildIndex()
	return nc, nil
}

// Split partitions c by color; within each color, ranks are ordered by
// (key, old rank). A negative color yields a nil communicator for that
// caller. Collective over c.
func (c *Comm) Split(color, key int) (*Comm, error) {
	// Gather (color, key) pairs at rank 0 over the collective plane,
	// compute the partition there, then scatter each member's new group.
	n, p := c.Size(), nativePlane{c}
	mine := []byte{
		byte(color), byte(color >> 8), byte(color >> 16), byte(color >> 24),
		byte(key), byte(key >> 8), byte(key >> 16), byte(key >> 24),
	}
	all := make([]byte, 8*n)
	if err := gatherInto(p, mine, all, 0, kCtxAlloc); err != nil {
		return nil, err
	}

	var groupsEncoded [][]byte
	if c.myRank == 0 {
		type member struct{ color, key, rank int }
		members := make([]member, n)
		for i := 0; i < n; i++ {
			col := int(int32(uint32(all[i*8]) | uint32(all[i*8+1])<<8 | uint32(all[i*8+2])<<16 | uint32(all[i*8+3])<<24))
			k := int(int32(uint32(all[i*8+4]) | uint32(all[i*8+5])<<8 | uint32(all[i*8+6])<<16 | uint32(all[i*8+7])<<24))
			members[i] = member{col, k, i}
		}
		byColor := make(map[int][]member)
		var colors []int
		for _, m := range members {
			if m.color < 0 {
				continue
			}
			if _, seen := byColor[m.color]; !seen {
				colors = append(colors, m.color)
			}
			byColor[m.color] = append(byColor[m.color], m)
		}
		sort.Ints(colors)
		// Each color group gets a context id; encode for every member of c
		// its new group as [ctx, len, worldRanks...] (int32s), empty for
		// color < 0.
		groupsEncoded = make([][]byte, n)
		for _, col := range colors {
			ms := byColor[col]
			sort.Slice(ms, func(i, j int) bool {
				if ms[i].key != ms[j].key {
					return ms[i].key < ms[j].key
				}
				return ms[i].rank < ms[j].rank
			})
			id := c.proc.world.ctxCounter
			c.proc.world.ctxCounter += 2
			worldRanks := make([]int, len(ms))
			for i, m := range ms {
				worldRanks[i] = c.group[m.rank]
			}
			enc := encodeInt32s(append([]int{int(id), len(ms)}, worldRanks...))
			for _, m := range ms {
				groupsEncoded[m.rank] = enc
			}
		}
		for i := range groupsEncoded {
			if groupsEncoded[i] == nil {
				groupsEncoded[i] = []byte{}
			}
		}
	}

	var myEnc []byte
	if c.myRank == 0 {
		myEnc = groupsEncoded[0]
		for dst := 1; dst < n; dst++ {
			if err := p.SendColl(groupsEncoded[dst], dst, kCtxAlloc); err != nil {
				return nil, err
			}
		}
	} else {
		var err error
		if myEnc, err = p.RecvColl(8+8*n+64, 0, kCtxAlloc); err != nil {
			return nil, err
		}
	}

	if len(myEnc) == 0 {
		return nil, nil // color < 0: not in any new communicator
	}
	vals := decodeInt32s(myEnc)
	id := uint32(vals[0])
	cnt := vals[1]
	group := vals[2 : 2+cnt]
	nc := &Comm{proc: c.proc, ctx: id, group: append([]int(nil), group...)}
	for i, wr := range nc.group {
		if wr == c.proc.rank {
			nc.myRank = i
		}
	}
	nc.buildIndex()
	return nc, nil
}

func encodeInt32s(vs []int) []byte {
	b := make([]byte, 4*len(vs))
	for i, v := range vs {
		u := uint32(int32(v))
		b[i*4] = byte(u)
		b[i*4+1] = byte(u >> 8)
		b[i*4+2] = byte(u >> 16)
		b[i*4+3] = byte(u >> 24)
	}
	return b
}

func decodeInt32s(b []byte) []int {
	vs := make([]int, len(b)/4)
	for i := range vs {
		u := uint32(b[i*4]) | uint32(b[i*4+1])<<8 | uint32(b[i*4+2])<<16 | uint32(b[i*4+3])<<24
		vs[i] = int(int32(u))
	}
	return vs
}
