package main

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"repro/internal/svd"
	"repro/internal/workloads"
)

// TestForensicReportGolden pins the -witness section byte for byte: the
// SHA-256 of the forensic text "svd -witness -show 50" prints for every
// registered workload at seeds 1 and 3. The hashes were recorded when
// the detector still assembled a witness for every violation and the
// renderer grouped them, so folding violations into site-pair groups at
// detection time must leave every report unchanged.
func TestForensicReportGolden(t *testing.T) {
	want := map[string]string{
		"apache-buggy/1":         "e0725d9578a412b1dd693e91200230d04fae6020dcfd644bd38eb27b3bd8f7ae",
		"apache-buggy/3":         "550589e269d5b419857dec472ccbcc6fc4cfefcca66e7f984df7ea84945eb8c1",
		"apache-fixed/1":         "cc49b1b7bbb3cf4af1b7cb97c6480a32189861870f67510e6d429fa2394c4f48",
		"apache-fixed/3":         "117a52656b862fdd97ef368768ca12a8c42951d34bf46bc3427336ea365431ec",
		"mysql-prepared-buggy/1": "53d74716b8375cc5476545422ab78e9845f78eb60a10e4955d1c3c615654ee12",
		"mysql-prepared-buggy/3": "33addcb5dde54b6264f1cef6763648fc3f28906f738820141721adc0bb5336e5",
		"mysql-prepared-fixed/1": "9ec59ced7137cd1293184edfa93f00c0aa99204edcb5ca8f7d7ec873a4ed5062",
		"mysql-prepared-fixed/3": "9ec59ced7137cd1293184edfa93f00c0aa99204edcb5ca8f7d7ec873a4ed5062",
		"mysql-tables/1":         "9ec59ced7137cd1293184edfa93f00c0aa99204edcb5ca8f7d7ec873a4ed5062",
		"mysql-tables/3":         "9ec59ced7137cd1293184edfa93f00c0aa99204edcb5ca8f7d7ec873a4ed5062",
		"pgsql-oltp/1":           "47141259f4816dbf3053be46d939dc1c8c220fcf862d1020cc99310904d9ee8c",
		"pgsql-oltp/3":           "2fcc738d0e1996ef0cc04bb068a6ac07c38153bd73113987bbb249192f389922",
		"queue-buggy/1":          "93e8bcdd01642c2d472790e278841260b30caa04f2e9d25257c1d63f743d767d",
		"queue-buggy/3":          "c7b290d5c4afd793f36b3ae7ec4902f48ae1a1bf2ca81504e0c88bd237f0bde5",
		"queue-fixed/1":          "0efbe1b9702f8ae055c11589ede3380bb3dcb016eafea83124d861f4251aa457",
		"queue-fixed/3":          "1055bd267d1c2cc206f63e1844b1c8a9d436187fc274683c0428d25f70d335ad",
	}
	for _, name := range workloads.Names() {
		for _, seed := range []uint64{1, 3} {
			m, _, err := buildMachine(name, "", seed, 1, 0)
			if err != nil {
				t.Fatal(err)
			}
			prog := m.Program()
			det := svd.New(prog, m.NumCPUs(), svd.Options{Witness: true})
			m.AttachColumns(det)
			if _, err := m.Run(1 << 24); err != nil {
				t.Fatal(err)
			}
			text := forensicReport(prog, det.WitnessGroups(), svd.Examine(prog, det.Log()), 0, 50)
			key := fmt.Sprintf("%s/%d", name, seed)
			if got := fmt.Sprintf("%x", sha256.Sum256([]byte(text))); got != want[key] {
				t.Errorf("%s: %d-byte forensic report hashes to %s, want %s", key, len(text), got, want[key])
			}
		}
	}
}
