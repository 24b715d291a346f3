package main

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"repro/internal/frd"
	"repro/internal/workloads"
)

// TestForensicReportGolden pins the -witness section byte for byte: the
// SHA-256 of the forensic text "frd -witness -show 50" prints for every
// registered workload at seeds 1 and 3. The hashes were recorded when
// the detector still assembled a witness for every race and the
// renderer grouped them, so folding races into site-pair groups at
// detection time must leave every report unchanged.
func TestForensicReportGolden(t *testing.T) {
	want := map[string]string{
		"apache-buggy/1":         "20c589bf10d1d9cc8b8e57c5399cbc2d9b313a3c2aa998402efe8710bc3021d9",
		"apache-buggy/3":         "bd5d9b4b2bc618d899bb7c089e6785b6ff96e5780f0d314edae4ccb8942ab971",
		"apache-fixed/1":         "9ec59ced7137cd1293184edfa93f00c0aa99204edcb5ca8f7d7ec873a4ed5062",
		"apache-fixed/3":         "9ec59ced7137cd1293184edfa93f00c0aa99204edcb5ca8f7d7ec873a4ed5062",
		"mysql-prepared-buggy/1": "f74d934b62cc60f541972e1a2ca0ef6dee15eb7be88e73529991b1d34d2940ea",
		"mysql-prepared-buggy/3": "0d9a12d317f73c7dc9c1443253cc2feeea2550fdffc221c4fa5a0ed754d59d47",
		"mysql-prepared-fixed/1": "9ec59ced7137cd1293184edfa93f00c0aa99204edcb5ca8f7d7ec873a4ed5062",
		"mysql-prepared-fixed/3": "9ec59ced7137cd1293184edfa93f00c0aa99204edcb5ca8f7d7ec873a4ed5062",
		"mysql-tables/1":         "e997c8fba0e73d8627229b110250fc4252d6917f74719fa2b806d890a62dfd51",
		"mysql-tables/3":         "8aee0d74001c1bf3eace58c551074f620c3e05ddeed5576de413e5f28f38604b",
		"pgsql-oltp/1":           "9ec59ced7137cd1293184edfa93f00c0aa99204edcb5ca8f7d7ec873a4ed5062",
		"pgsql-oltp/3":           "9ec59ced7137cd1293184edfa93f00c0aa99204edcb5ca8f7d7ec873a4ed5062",
		"queue-buggy/1":          "02ed4f601751281c68f77e90e6f7e628b9a063c2cb89b6994e37473410cf05e6",
		"queue-buggy/3":          "94cfbf6cf8c9b4b17e60e0bbe607db854954399cdc494f2d0fa393aef6e50ea1",
		"queue-fixed/1":          "9ec59ced7137cd1293184edfa93f00c0aa99204edcb5ca8f7d7ec873a4ed5062",
		"queue-fixed/3":          "9ec59ced7137cd1293184edfa93f00c0aa99204edcb5ca8f7d7ec873a4ed5062",
	}
	for _, name := range workloads.Names() {
		for _, seed := range []uint64{1, 3} {
			m, _, err := buildMachine(name, "", seed, 1, 0)
			if err != nil {
				t.Fatal(err)
			}
			prog := m.Program()
			det := frd.New(prog, m.NumCPUs(), frd.Options{Witness: true})
			m.AttachColumns(det)
			if _, err := m.Run(1 << 24); err != nil {
				t.Fatal(err)
			}
			text := forensicReport(prog, det.WitnessGroups(), 0, 50)
			key := fmt.Sprintf("%s/%d", name, seed)
			if got := fmt.Sprintf("%x", sha256.Sum256([]byte(text))); got != want[key] {
				t.Errorf("%s: %d-byte forensic report hashes to %s, want %s", key, len(text), got, want[key])
			}
		}
	}
}
