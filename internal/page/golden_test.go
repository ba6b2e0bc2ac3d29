package page

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand/v2"
	"strings"
	"testing"

	"github.com/cidr09/unbundled/internal/base"
)

// goldenFrames is the SHA-256 of every delta frame and base image
// TestDeltaFramesAreGolden writes, in order. The page format is stable: a
// change to how a frame is built must leave it as it is.
const goldenFrames = "e055f3a09862765005acdda51768e0196ea854c6fdad0c7a99b87921a25957aa"

// TestDeltaFramesAreGolden runs seeded walks of inserts, removals, Replace,
// versioned writes and deletes under a trailing GC horizon over a leaf with a
// chain, and writes it back now and then by the buffer pool's rule: a delta
// frame, collected down to the horizon, when it fits the room half the base
// leaves, else a full image, every record collected. Now and then the page is
// decoded again from its chain, as a miss does. The bytes of every frame and
// image, hashed, must be goldenFrames: a frame must stay byte-identical,
// however it comes to be built.
func TestDeltaFramesAreGolden(t *testing.T) {
	sum := sha256.New()
	frames, images := 0, 0
	for seed := uint64(1); seed <= 24; seed++ {
		rnd := rand.New(rand.NewPCG(seed, 56))
		p := NewLeaf(base.PageID(seed))
		for i := 0; i < 30; i += 2 {
			p.Put(Record{Key: fmt.Sprintf("k%02d", i), Owner: 1, Value: bytes.Repeat([]byte{'i'}, 20)})
		}
		chain := p.Encode()
		baseLen := len(chain)
		p.SetChain(chain, baseLen)
		writeBack := func(step int, horizon base.TS) {
			p.Ab.Ensure(2).Add(base.LSN(step))
			p.Ab.Ensure(2).Advance(base.LSN(step/2), base.LSN(step))
			if next, _, ok := p.AppendDelta(chain, horizon, baseLen/2-(len(chain)-baseLen)); ok {
				sum.Write(next[len(chain):])
				frames++
				chain = next
			} else {
				p.CollectImage(horizon)
				chain = p.Encode()
				baseLen = len(chain)
				sum.Write(chain)
				images++
			}
			p.SetChain(chain, baseLen)
		}
		for step := 1; step <= 1500; step++ {
			ts, horizon := base.TS(step), base.TS(step-rnd.IntN(40))
			key := fmt.Sprintf("k%02d", rnd.IntN(60))
			if rnd.IntN(8) == 0 {
				key += strings.Repeat("-long", 30) // a two-byte key length
			}
			val := bytes.Repeat([]byte{byte('a' + step%26)}, 1+rnd.IntN(30))
			if rnd.IntN(8) == 0 {
				val = bytes.Repeat(val, 10)
			}
			switch op := rnd.IntN(10); {
			case op < 2:
				p.Put(Record{Key: key, Owner: base.TCID(1 + rnd.IntN(2)), Value: val})
				p.Ab.Ensure(1).Add(base.LSN(step))
			case op < 3 && len(p.Recs) > 0:
				r := p.Recs[rnd.IntN(len(p.Recs))]
				r.Value = val
				p.Replace(p.Get(r.Key), r)
			case op < 5 && len(p.Recs) > 0:
				// A versioned write or, one in four, delete, stamped now.
				r := p.Recs[rnd.IntN(len(p.Recs))]
				r.Stage(ts, horizon)
				r.Value, r.Flags = val, r.Flags&^FlagTombstone
				if rnd.IntN(4) == 0 {
					r.Value, r.Flags = nil, r.Flags|FlagTombstone
				}
				p.Replace(p.Get(r.Key), r)
			case op < 6 && len(p.Recs) > 0:
				p.Remove(p.Recs[rnd.IntN(len(p.Recs))].Key)
			case op < 9:
				writeBack(step, horizon)
			default: // written back and evicted, then a miss
				writeBack(step, horizon)
				q, err := Decode(chain)
				if err != nil || !q.Equal(p) {
					t.Fatalf("seed %d step %d: the chain decodes to another page (%v)", seed, step, err)
				}
				p = q
			}
		}
	}
	got := hex.EncodeToString(sum.Sum(nil))
	t.Logf("%d delta frames, %d full images: %s", frames, images, got)
	if frames < images || images == 0 {
		t.Fatalf("%d delta frames and %d full images: the walk does not exercise chains", frames, images)
	}
	if got != goldenFrames {
		t.Fatalf("the frames hash to %s, want %s", got, goldenFrames)
	}
}
