// Concurrent: the paper's §3 in action. A bulk delete runs with the
// concurrency protocol enabled — exclusive table lock, all indexes offline,
// the lock released as soon as the table and the unique indexes are
// processed — while updater goroutines keep inserting rows. Updates to the
// still-offline indexes flow through side-files that the bulk deleter
// replays before bringing each index back online.
//
// Afterwards the example crashes the database and recovers it, showing the
// §3.2 restart path (here the bulk delete had committed, so recovery finds
// nothing to roll forward — the roll-forward itself is exercised by the
// test suite's crash-injection tests).
package main

import (
	"fmt"
	"log"
	"sync"

	"bulkdel"
)

func main() {
	db, err := bulkdel.Open(bulkdel.Options{})
	if err != nil {
		log.Fatal(err)
	}
	events, err := db.CreateTable("events", 3, 128)
	if err != nil {
		log.Fatal(err)
	}
	// The id index is unique: the paper requires unique indexes to be
	// processed before the table lock is released, so uniqueness stays
	// enforceable. The kind index stays offline longer and receives
	// concurrent updates through its side-file.
	if err := events.CreateIndex(bulkdel.IndexOptions{Name: "id", Field: 0, Unique: true}); err != nil {
		log.Fatal(err)
	}
	if err := events.CreateIndex(bulkdel.IndexOptions{Name: "kind", Field: 1}); err != nil {
		log.Fatal(err)
	}
	// Two more non-unique indexes: they are processed after the table
	// lock is released, which widens the window in which concurrent
	// updates flow through side-files.
	if err := events.CreateIndex(bulkdel.IndexOptions{Name: "shard", Field: 2}); err != nil {
		log.Fatal(err)
	}
	const n = 60000
	for i := 0; i < n; i++ {
		if _, err := events.Insert(int64(i), int64(i%50), int64(i)); err != nil {
			log.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("events table: %d rows\n", events.Count())

	// Victims: the oldest half of the ids.
	victims := make([]int64, n/2)
	for i := range victims {
		victims[i] = int64(i)
	}

	// Updaters insert new events while the bulk delete runs. Their
	// first insert blocks on the table lock until the bulk
	// deleter releases it (after the heap and the unique id index); the
	// rest land in the side-files of the still-offline kind and shard
	// indexes.
	const updaters, insertsEach = 2, 1200
	var wg sync.WaitGroup
	var mu sync.Mutex
	var newIDs []int64
	for w := 0; w < updaters; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < insertsEach; i++ {
				id := int64(1000000 + w*100000 + i)
				if _, err := events.Insert(id, id%50, id); err != nil {
					log.Printf("updater %d: %v", w, err)
					return
				}
				mu.Lock()
				newIDs = append(newIDs, id)
				mu.Unlock()
			}
		}(w)
	}

	res, err := events.BulkDelete(0, victims, bulkdel.BulkOptions{Concurrent: true})
	if err != nil {
		log.Fatal(err)
	}
	wg.Wait()

	fmt.Printf("bulk delete removed %d records (%v plan) in %v simulated\n",
		res.Deleted, res.Method, res.Elapsed)
	fmt.Printf("concurrent inserts while it ran: %d (side-file operations replayed: %d)\n",
		len(newIDs), res.SideFileOps)

	// Every concurrent insert must be visible through every index.
	for _, id := range newIDs {
		rows, err := events.Lookup(0, id)
		if err != nil || len(rows) != 1 {
			log.Fatalf("insert %d lost: %v %v", id, rows, err)
		}
	}
	if err := events.Check(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("consistency verified: %d rows, all indexes agree\n\n", events.Count())

	// Crash and recover.
	if err := db.Flush(); err != nil {
		log.Fatal(err)
	}
	disk := db.SimulateCrash()
	fmt.Println("simulated crash: volatile state gone")
	db2, report, err := bulkdel.Recover(disk, bulkdel.Options{})
	if err != nil {
		log.Fatal(err)
	}
	events2 := db2.Table("events")
	if report.BulkInProgress {
		fmt.Printf("recovery rolled forward a bulk delete on %s (%d records)\n",
			report.Table, report.RolledForward)
	} else {
		fmt.Println("recovery: no bulk delete was in flight (it had committed)")
	}
	if err := events2.Check(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("recovered database verified: %d rows\n", events2.Count())
}
