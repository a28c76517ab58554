// Incident drill — the operations story of Sections 5 and 6: run a
// healthy monitored cluster, let one NIC go rogue (a PFC pause storm),
// watch the monitoring detect it, and see the watchdogs contain the
// blast radius while the rest of the fleet keeps serving.
package main

import (
	"fmt"
	"strings"
	"time"

	"rocesim"
	"rocesim/internal/health"
	"rocesim/internal/simtime"
)

func main() {
	cl, err := rocesim.NewCluster(11, rocesim.Fig8())
	if err != nil {
		panic(err)
	}
	dep := cl.Deployment()

	// Background service traffic: six ToR-to-ToR pairs.
	type stream struct{ send func() }
	for i := 0; i < 6; i++ {
		qp, _ := cl.ConnectRC(cl.Server(0, 0, i), cl.Server(0, 1, i), rocesim.ClassBulk)
		var pump func(time.Duration)
		pump = func(time.Duration) { qp.Send(1<<20, pump) }
		pump(0)
		pump(0)
	}
	// Traffic toward the soon-to-be-rogue server (its flows are what
	// back up through the fabric).
	rogue := cl.Server(0, 0, 10)
	for i := 6; i < 9; i++ {
		qp, _ := cl.ConnectRC(cl.Server(0, 1, i), rogue, rocesim.ClassBulk)
		var pump func(time.Duration)
		pump = func(time.Duration) { qp.Send(1<<20, pump) }
		pump(0)
	}

	// The paper's storm signature: >2000 pause frames/second, i.e. 20 or
	// more in one 10 ms scrape on any device. The objective pages on the
	// first such scrape; the subscriber names the devices over threshold
	// at that moment.
	const threshold = 20
	mon := cl.Monitor()
	eng := health.NewEngine(cl.Kernel(), mon)
	eng.Add(health.Objective{
		Name: "pause-storm", Bad: health.OverDelta(mon, "/pause_rx", threshold),
		LongWindow: mon.Interval(),
	})
	cl.Kernel().OnAnnounce(func(v any) {
		a, ok := v.(health.SLOAlert)
		if !ok {
			return
		}
		at := fmt.Sprintf("t=%dms", a.At/simtime.Time(simtime.Millisecond))
		if a.Cleared {
			fmt.Printf("%-9s %s cleared\n", at, a.Objective)
			return
		}
		fmt.Printf("%-9s ALERT %s breached; devices over threshold:\n", at, a.Objective)
		for _, key := range mon.Keys {
			if b, _ := mon.Series[key].Last(); strings.HasSuffix(key, "/pause_rx") && b.Sum >= threshold {
				fmt.Printf("%-9s   %s: %g pause frames in one interval\n", "", strings.TrimSuffix(key, "/pause_rx"), b.Sum)
			}
		}
	})

	fmt.Println("t=0ms     cluster healthy, traffic flowing")
	cl.Run(100 * time.Millisecond)
	if !eng.EverBreached() {
		fmt.Println("t=100ms   monitoring: all quiet")
	}

	fmt.Println("t=100ms   !!! NIC on", rogue.NIC.Name(), "malfunctions: continuous pause frames")
	rogue.NIC.SetMalfunction(true)
	cl.Run(250 * time.Millisecond)

	if rogue.NIC.PauseDisabled() {
		fmt.Println("t=350ms   NIC watchdog tripped: pause generation disabled (server awaits repair)")
	}
	trips := 0
	for _, sw := range dep.Net.Switches() {
		trips += int(sw.C.WatchdogTrips.Value())
	}
	fmt.Printf("t=350ms   switch watchdogs tripped %d time(s): lossless mode cut for the rogue port\n", trips)

	// Repair (the paper: reboot/reimage) and verify recovery.
	rogue.NIC.SetMalfunction(false)
	cl.Run(300 * time.Millisecond)
	fmt.Println("t=650ms   server repaired; pause frames gone; lossless mode restored")
	if cycle := cl.FindDeadlock(); cycle == nil {
		fmt.Println("final     no pause cycles; fleet healthy")
	}
}
