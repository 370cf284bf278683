package golden

import "testing"

func TestDiffNamesEachCell(t *testing.T) {
	old := "title\nx  y\n\nkind,a,b\nCPU-Only,1,2\nALL-GPU,3,4\n"
	now := "title\nx  z\n\nkind,a,b\nCPU-Only,1,5\nALL-GPU,0.5,4\nDED-GPU,6,7\n"
	want := `table "title":
  f:2: "x  y" → "x  z"
table "kind,a,b":
  f:5: row "CPU-Only", column "b": 2 → 5
  f:6: row "ALL-GPU", column "a": 3 → 0.5
  f:7: "" → "DED-GPU,6,7"
`
	if got := diff("f", old, now); got != want {
		t.Errorf("diff:\n%s\nwant:\n%s", got, want)
	}
}
