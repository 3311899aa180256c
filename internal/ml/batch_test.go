package ml

import (
	"testing"
)

// TestBatchKernelsMatchSerial asserts the tree-major batch kernels are
// bit-identical to the per-instance PredictProba path — the serving
// runtime swaps one for the other, so any drift would change served
// predictions depending on traffic shape.
func TestBatchKernelsMatchSerial(t *testing.T) {
	data := blobs(7, 238, 6, 3, 1.5)
	models := []Classifier{
		NewForest(ForestConfig{Trees: 20, MaxDepth: 8, MinLeaf: 1, MaxFeatures: -1, Seed: 1}),
		NewGBDT(DefaultLightGBMConfig()),
		NewGBDT(DefaultXGBoostConfig()),
	}
	for _, m := range models {
		if err := m.Fit(data); err != nil {
			t.Fatalf("%s fit: %v", m.Name(), err)
		}
		bp, ok := m.(BatchPredictor)
		if !ok {
			t.Fatalf("%s should implement BatchPredictor", m.Name())
		}
		got := bp.PredictProbaBatch(data.X)
		if len(got) != data.Len() {
			t.Fatalf("%s batch rows %d, want %d", m.Name(), len(got), data.Len())
		}
		for i, x := range data.X {
			want := m.PredictProba(x)
			for c := range want {
				if got[i][c] != want[c] {
					t.Fatalf("%s row %d class %d: batch %v != serial %v",
						m.Name(), i, c, got[i][c], want[c])
				}
			}
		}
	}
}

// TestPredictProbaAllFallback covers the per-instance fallback for models
// without a batch kernel and the shared argmax helper.
func TestPredictProbaAllFallback(t *testing.T) {
	data := blobs(3, 120, 4, 2, 1.0)
	m := NewLogReg(DefaultLogRegConfig())
	if err := m.Fit(data); err != nil {
		t.Fatal(err)
	}
	if _, ok := interface{}(m).(BatchPredictor); ok {
		t.Fatal("LogReg unexpectedly implements BatchPredictor; fallback path untested")
	}
	probs := PredictProbaAll(m, data.X[:10])
	classes := ArgmaxAll(probs)
	for i := range classes {
		if want := Predict(m, data.X[i]); classes[i] != want {
			t.Fatalf("row %d: class %d, want %d", i, classes[i], want)
		}
	}
	if PredictProbaAll(m, nil) != nil {
		t.Fatal("empty batch should return nil")
	}
}
