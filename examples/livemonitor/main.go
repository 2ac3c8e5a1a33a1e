// Live monitoring — continuous evaluation over an ordered feed: attack
// records are pushed one at a time in timestamp order (as a network
// tap would deliver them), and escalation alerts are emitted the
// moment the streaming engine proves no later packet can change them.
// Memory holds only the live frontier, never the full result.
//
//	go run ./examples/livemonitor
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"awra/aw"
	"awra/internal/gen"
	"awra/internal/storage"
)

func main() {
	// Generate a time-ordered feed (on disk, then replayed in order —
	// stand-in for a live tap).
	dir, err := os.MkdirTemp("", "awra-live")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	fact := filepath.Join(dir, "net.rec")
	schema, truth, err := gen.NetLog(fact, 120000, gen.NetConfig{Days: 2, Escalations: 3, Recons: 0, Seed: 99})
	if err != nil {
		log.Fatal(err)
	}

	gSubHour, err := schema.MakeGran(map[string]string{"t": "Hour", "T": "/24"})
	if err != nil {
		log.Fatal(err)
	}
	wf := aw.NewWorkflow(schema).
		Basic("traffic", gSubHour, aw.Count, -1).
		Sliding("prev", "traffic", aw.Sum, []aw.Window{{Dim: 0, Lo: -1, Hi: -1}}).
		Combine("growth", []string{"traffic", "prev"}, aw.CombineFunc{
			Name: "hourly growth",
			Fn: func(v []float64) float64 {
				if aw.IsNull(v[0]) || aw.IsNull(v[1]) || v[1] < 16 {
					return aw.Null()
				}
				return v[0] / v[1]
			},
		})

	hour, err := schema.Dim(0).LevelByName("Hour")
	if err != nil {
		log.Fatal(err)
	}

	alerts := 0
	var growthCodec interface{ Format(aw.Key) string }
	stream, err := aw.RunStream(context.Background(), wf, aw.StreamOptions{
		// Arrival order: by time, then target subnet within the hour.
		// The stream rejects a record that arrives out of this order.
		SortKey: aw.SortKey{{Dim: 0, Lvl: hour}, {Dim: 2, Lvl: 0}},
		Emit: func(measure string, key aw.Key, value float64) {
			if measure != "growth" || aw.IsNull(value) || value < 2 {
				return
			}
			alerts++
			if alerts <= 10 && growthCodec != nil {
				fmt.Printf("  ALERT %-44s traffic x%.1f\n", growthCodec.Format(key), value)
			}
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	m, err := stream.Workflow().MeasureByName("growth")
	if err != nil {
		log.Fatal(err)
	}
	growthCodec = m.Codec

	// Replay the feed in arrival order.
	recs, _, err := storage.ReadAll(fact)
	if err != nil {
		log.Fatal(err)
	}
	key := stream.SortKey()
	storage.SortRecords(recs, func(a, b *aw.Record) bool { return key.RecordLess(schema, a, b) })

	fmt.Println("streaming", len(recs), "records; alerts fire as hours finalize:")
	maxLive := int64(0)
	for i := range recs {
		if err := stream.Push(&recs[i]); err != nil {
			log.Fatal(err)
		}
		if lc := stream.LiveCells(); lc > maxLive {
			maxLive = lc
		}
	}
	res, err := stream.Close()
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\n%d alerts; peak live frontier %d cells vs %d total regions\n",
		alerts, maxLive, len(res["traffic"].Rows)+len(res["prev"].Rows)+len(res["growth"].Rows))

	hourLvl, _ := schema.Dim(0).LevelByName("Hour")
	subLvl, _ := schema.Dim(2).LevelByName("/24")
	fmt.Println("\nplanted escalations:")
	for _, e := range truth.Escalations {
		fmt.Printf("  target %-18s peak %s\n",
			schema.Dim(2).FormatCode(subLvl, e.TargetSubnet),
			schema.Dim(0).FormatCode(hourLvl, e.HourCode))
	}
}
