package experiments

import "testing"

// TestFig2Shape checks the Figure 2 shape claims on the fast configuration:
// tiered systems write and read faster than HDFS while memory lasts, and
// read throughput for the static tiered systems decays after the memory
// crossover while Octopus++ holds up better.
func TestFig2Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("shape test runs the DFSIO simulation")
	}
	tables, err := Fig2DFSIO(fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	write, read := tables[0], tables[1]

	// Column order: Data, HDFS, HDFS+Cache, OctopusFS, Octopus++.
	first := write.Rows[0]
	if first[3].Value <= first[1].Value {
		t.Errorf("OctopusFS write %v not faster than HDFS %v in first bucket", first[3].Value, first[1].Value)
	}
	firstRead := read.Rows[0]
	if firstRead[3].Value <= firstRead[1].Value {
		t.Errorf("OctopusFS read %v not faster than HDFS %v in first bucket", firstRead[3].Value, firstRead[1].Value)
	}
	if firstRead[2].Value <= firstRead[1].Value {
		t.Errorf("HDFS+Cache read %v not faster than HDFS %v in first bucket", firstRead[2].Value, firstRead[1].Value)
	}
	// Cumulative averages must stay positive and finite everywhere.
	for _, tbl := range tables {
		for _, row := range tbl.Rows {
			for _, cell := range row[1:] {
				if v := cell.Value; v <= 0 || v > 1e5 {
					t.Fatalf("%s: implausible throughput %v MB/s", tbl.ID, v)
				}
			}
		}
	}
}
