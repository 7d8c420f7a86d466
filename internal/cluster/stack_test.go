package cluster

import (
	"slices"
	"testing"
	"time"

	"spritefs/internal/client"
	"spritefs/internal/fscache"
	"spritefs/internal/workload"
)

// sparseIDs are added out of order; 40 also sits at a slice index that
// differs from its id, which id-as-index lookups would miss.
var sparseIDs = []int32{7, 2, 40}

func newSparseStack(t *testing.T) *Cluster {
	t.Helper()
	c := NewStack(Config{Params: workload.Params{Seed: 1}, NumServers: 2})
	for _, id := range sparseIDs {
		c.AddClient(id)
	}
	return c
}

// dirtyFile creates a file from cl and leaves one block of it dirty in
// cl's cache (closed, awaiting delayed write).
func dirtyFile(t *testing.T, cl *client.Client) uint64 {
	t.Helper()
	file := cl.Create(1, 1, false, false)
	hid, _, err := cl.Open(1, 1, file, false, true, false)
	if err != nil {
		t.Fatal(err)
	}
	cl.WriteAt(hid, 0, fscache.BlockSize)
	if _, err := cl.Close(hid); err != nil {
		t.Fatal(err)
	}
	if !cl.Cache.FileDirty(file) {
		t.Fatal("written block is not dirty in the client cache")
	}
	return file
}

func TestAddClientKeepsClientsSortedByID(t *testing.T) {
	c := newSparseStack(t)
	var got []int32
	for _, cl := range c.Clients {
		got = append(got, cl.ID())
	}
	if want := []int32{2, 7, 40}; !slices.Equal(got, want) {
		t.Fatalf("Clients ids = %v, want %v", got, want)
	}
}

func TestClientLookup(t *testing.T) {
	c := newSparseStack(t)
	for _, id := range sparseIDs {
		if cl := c.Client(id); cl == nil || cl.ID() != id {
			t.Errorf("Client(%d) = %v", id, cl)
		}
	}
	for _, id := range []int32{-1, 0, 3, 39, 41} {
		if cl := c.Client(id); cl != nil {
			t.Errorf("Client(%d) = client %d, want nil", id, cl.ID())
		}
	}
}

func TestCoordinatorReachesSparseClient(t *testing.T) {
	c := newSparseStack(t)
	cl := c.Client(40)

	recalled := dirtyFile(t, cl)
	c.RecallFrom(40, recalled)
	if cl.Cache.FileDirty(recalled) {
		t.Error("RecallFrom(40) left the file dirty in client 40's cache")
	}

	disabled := dirtyFile(t, cl)
	c.DisableCaching([]int32{40}, disabled)
	if cl.Cache.FileDirty(disabled) || cl.Cache.Contains(disabled, 0) {
		t.Error("DisableCaching(40) left the file cached in client 40")
	}
}

func TestClientAddedAfterStartDaemonsIsCleaned(t *testing.T) {
	c := newSparseStack(t)
	c.StartDaemons()
	c.Sim.RunUntil(time.Minute)
	late := c.AddClient(11)
	file := dirtyFile(t, late)
	c.Sim.RunUntil(c.Sim.Now() + fscache.WritebackDelay + fscache.CleanerPeriod)
	if late.Cache.FileDirty(file) {
		t.Error("a client added after StartDaemons has no running cleaner")
	}
	c.Finish()

	// After Finish the daemons are stopped, and a new client's are too.
	idle := c.AddClient(12)
	file = dirtyFile(t, idle)
	c.Sim.RunUntil(c.Sim.Now() + 2*fscache.WritebackDelay)
	if !idle.Cache.FileDirty(file) {
		t.Error("a client added after Finish was cleaned")
	}
}
