package nn

import (
	"fmt"
	"math"

	"feddrl/internal/mathx"
	"feddrl/internal/tensor"
)

// CrossEntropy is the softmax cross-entropy loss over integer class
// labels, the classification loss of every client model in the paper.
// The softmax is fused into the loss so the network's last layer emits
// raw logits, and the combined backward is the numerically benign
// (softmax − onehot) / batch.
type CrossEntropy struct {
	// probs points into probsBuf while backward state is valid; Eval
	// drops probs but keeps probsBuf's capacity for reuse, so warm
	// train steps allocate nothing.
	probs    *tensor.Tensor
	probsBuf *tensor.Tensor
	gradBuf  *tensor.Tensor
	labels   []int
}

// NewCrossEntropy returns a softmax cross-entropy loss.
func NewCrossEntropy() *CrossEntropy { return &CrossEntropy{} }

// Forward returns the mean cross-entropy of logits (batch, classes)
// against labels.
func (l *CrossEntropy) Forward(logits *tensor.Tensor, labels []int) float64 {
	batch, classes := logits.Rows(), logits.Cols()
	if len(labels) != batch {
		panic(fmt.Sprintf("nn: CrossEntropy labels length %d, batch %d", len(labels), batch))
	}
	l.probsBuf = tensor.Reuse2D(l.probsBuf, batch, classes)
	l.probs = l.probsBuf
	l.labels = labels
	total := 0.0
	for i := 0; i < batch; i++ {
		y := labels[i]
		if y < 0 || y >= classes {
			panic(fmt.Sprintf("nn: CrossEntropy label %d out of %d classes", y, classes))
		}
		row := logits.Row(i)
		pr := l.probs.Row(i)
		mathx.SoftmaxTo(pr, row)
		p := pr[y]
		if p < 1e-300 {
			p = 1e-300
		}
		total -= math.Log(p)
	}
	return total / float64(batch)
}

// Backward returns dLoss/dLogits for the last Forward call. The
// returned tensor is an internal buffer overwritten by the next
// Backward; callers must not retain it across steps.
func (l *CrossEntropy) Backward() *tensor.Tensor {
	if l.probs == nil {
		panic("nn: CrossEntropy.Backward before Forward")
	}
	batch := l.probs.Rows()
	l.gradBuf = tensor.Reuse2D(l.gradBuf, batch, l.probs.Cols())
	grad := l.gradBuf
	copy(grad.Data, l.probs.Data)
	inv := 1.0 / float64(batch)
	for i := 0; i < batch; i++ {
		row := grad.Row(i)
		row[l.labels[i]] -= 1
		for j := range row {
			row[j] *= inv
		}
	}
	return grad
}

// Eval returns the mean loss and top-1 accuracy of logits against labels
// without retaining backward state.
func (l *CrossEntropy) Eval(logits *tensor.Tensor, labels []int) (loss float64, acc float64) {
	batch := logits.Rows()
	if batch == 0 {
		return 0, 0
	}
	loss = l.Forward(logits, labels)
	correct := 0
	for i := 0; i < batch; i++ {
		if mathx.ArgMax(logits.Row(i)) == labels[i] {
			correct++
		}
	}
	l.probs = nil // drop backward state
	return loss, float64(correct) / float64(batch)
}

// MSE is the mean squared error loss used to train the DRL value network
// (Algorithm 1 line 6).
type MSE struct {
	diff    *tensor.Tensor
	gradBuf *tensor.Tensor
}

// NewMSE returns a mean-squared-error loss.
func NewMSE() *MSE { return &MSE{} }

// Forward returns mean((pred − target)²) over all elements of a
// (batch, 1) prediction against targets.
func (l *MSE) Forward(pred *tensor.Tensor, targets []float64) float64 {
	batch := pred.Rows()
	if pred.Cols() != 1 {
		panic(fmt.Sprintf("nn: MSE expects (batch,1) predictions, got %v", pred.Shape))
	}
	if len(targets) != batch {
		panic(fmt.Sprintf("nn: MSE targets length %d, batch %d", len(targets), batch))
	}
	l.diff = tensor.Reuse2D(l.diff, batch, 1)
	total := 0.0
	for i := 0; i < batch; i++ {
		d := pred.At(i, 0) - targets[i]
		l.diff.Set(i, 0, d)
		total += d * d
	}
	return total / float64(batch)
}

// Backward returns dLoss/dPred = 2(pred − target)/batch. The returned
// tensor is an internal buffer overwritten by the next Backward.
func (l *MSE) Backward() *tensor.Tensor {
	if l.diff == nil {
		panic("nn: MSE.Backward before Forward")
	}
	l.gradBuf = tensor.Reuse2D(l.gradBuf, l.diff.Rows(), 1)
	grad := l.gradBuf
	copy(grad.Data, l.diff.Data)
	grad.ScaleInPlace(2.0 / float64(grad.Rows()))
	return grad
}
