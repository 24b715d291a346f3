package report

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"testing"

	"repro/internal/workloads"
)

// verdictGolden pins the SHA-256 of json.Marshal(Run(...)) for every
// registry workload at scale 1, seeds 1 and 3, witness off and on. The
// Sample JSON carries every svd.Stats and frd.Stats counter
// (RemoteEvents, RemoteSent, RemoteSkipped, LogEntries among them), the
// witness groups and the classified sites, so any change to what the
// detectors report or count moves a hash here. A deliberate verdict
// change re-records the hash it moves and says why in CHANGES.md.
var verdictGolden = map[string]string{
	"apache-buggy/1/off":         "b1f13a6d8bd1f90771384c43df69c88e37ab0cf65f4ac4abbffe122746765ade",
	"apache-buggy/1/on":          "796d7866461315e468825d59f7587661909db9ef4b3d87528a4fdd429da60647",
	"apache-buggy/3/off":         "0ab3adb05c5bf2e6b2005087867fcccab1239011eec7eade13f28dded3b03482",
	"apache-buggy/3/on":          "bac4adfdfcf653dd4bf219122e112efd989eb6b4c2297324f21cf5ff89ddc2ef",
	"apache-fixed/1/off":         "a47e1ef12960e2b1a50cbb6258cac05b77411c4d30ca1943f470bce7f0240937",
	"apache-fixed/1/on":          "fafa09b754a4b130aabb805e0a49eb60674cbd20bb43f921874c1f62adabba93",
	"apache-fixed/3/off":         "e933b7349cfb42c250348aa97178a887259164dcaceb69bc1c217afd110a0304",
	"apache-fixed/3/on":          "6e955255c179f3c18a24b8fd123656ab003d35bb46c79fea28c31892118b09e2",
	"mysql-prepared-buggy/1/off": "d1cd243096a1a9c537703ed44edbb71051ab93c791d98a11dbc0269b44ba35c9",
	"mysql-prepared-buggy/1/on":  "2bf0cf612f06e5cb91d930e7db8f5d5d970bbec640ec02bbed883ec1e4743f4c",
	"mysql-prepared-buggy/3/off": "b7ac8b08b3b4cd6c8710bf20b2773fde5c867dc2833858eb5c7cf50d25960582",
	"mysql-prepared-buggy/3/on":  "ca313a6dc4d41f6cbcedd88995f2c84459c72c1218bf4bcb804fef80a08abb62",
	"mysql-prepared-fixed/1/off": "0e56f25ad6764ed70b0d151127202e335573cc6e2c7c26a05ef45d7a86f3b336",
	"mysql-prepared-fixed/1/on":  "0e56f25ad6764ed70b0d151127202e335573cc6e2c7c26a05ef45d7a86f3b336",
	"mysql-prepared-fixed/3/off": "5d31814700e5d8edd41715322d4ffa3c7641b61af3cbddbc059794c21fe0d677",
	"mysql-prepared-fixed/3/on":  "5d31814700e5d8edd41715322d4ffa3c7641b61af3cbddbc059794c21fe0d677",
	"mysql-tables/1/off":         "a524f84eb9abd0a0de9a31a3b06601393cadd9f2f8ad5aa5e51681ed9288f570",
	"mysql-tables/1/on":          "02b504f62284eaf5aaf311cf29790f8d0e193ef7a1e85f1075c48cd4274a0f56",
	"mysql-tables/3/off":         "2045199d57eef0b013149a04e0de1c99e6df74daa662e3fb3ffaf5962a80a55f",
	"mysql-tables/3/on":          "21e7674853fd8382848aa3530969cf2788657232ff5995d6e7a01ea81286abd7",
	"pgsql-oltp/1/off":           "ba21fdc3e05ea54db4963e19f5b9b24c68a7e646b61421acdea1ee8581009c87",
	"pgsql-oltp/1/on":            "e5f2e6944fbba0f074f1b835a1f38a6a427b525c5a5ba09c56b15dd44a6c3ef1",
	"pgsql-oltp/3/off":           "89f767958b40c1320369f8fc40a78b70f9da7e7b572a9c9ccc7a52bc15670e26",
	"pgsql-oltp/3/on":            "63ac449736f1e0216d8dcff60b3be07baea2d2bdf15401c99bd5b3bce469ed68",
	"queue-buggy/1/off":          "eb5d89556328781f8961ae64dbc356fb3605aafb8b6e8baef8f10c6aadec5c94",
	"queue-buggy/1/on":           "f9c3eb40486f88da4a16683d6589917526ec7fcae7e79cd21d16559fd0373c43",
	"queue-buggy/3/off":          "82fa178e850fd9b05cb83cf56cfde5b518065fc385915f2626cd0babcd4f13a2",
	"queue-buggy/3/on":           "d42d539fb4e02b0a7fb9c8a8ad31a2d691ed4c96871200549df10e7dc774dbb0",
	"queue-fixed/1/off":          "8bed5ebe890b4d6b522575827f084e90ac04c4896104290fe37fa5446fd4a95f",
	"queue-fixed/1/on":           "35c57fc5d074d700e1ac07cc602982ebc1bdbf6f5e064c367a7cfee8e06d72d0",
	"queue-fixed/3/off":          "6e2a35afae2782febf70bda2b3ee00c9c23e78b3b110e834532ce38ba47f2c7f",
	"queue-fixed/3/on":           "0747e6c69fcb4a1d6ba61e60e7167730ce696e82603cc55c86adb47b395a594d",
}

func sha256Hex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// TestVerdictGolden runs the 32 pinned samples and compares the hash of
// each Sample's JSON with verdictGolden.
func TestVerdictGolden(t *testing.T) {
	names := workloads.Names()
	if got := len(names) * 2 * 2; got != len(verdictGolden) {
		t.Fatalf("registry yields %d pinned samples, golden table has %d", got, len(verdictGolden))
	}
	for _, name := range names {
		for _, seed := range []uint64{1, 3} {
			for _, witness := range []bool{false, true} {
				mode := map[bool]string{false: "off", true: "on"}[witness]
				key := fmt.Sprintf("%s/%d/%s", name, seed, mode)
				w, err := workloads.ByName(name, 1, seed)
				if err != nil {
					t.Fatal(err)
				}
				s, err := Run(w, seed, Options{Witness: witness})
				if err != nil {
					t.Fatal(err)
				}
				b, err := json.Marshal(s)
				if err != nil {
					t.Fatal(err)
				}
				if got := sha256Hex(b); got != verdictGolden[key] {
					t.Errorf("%q: %q,", key, got)
				}
			}
		}
	}
}
