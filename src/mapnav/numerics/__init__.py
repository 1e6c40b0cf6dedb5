from .tensor import Tensor, no_grad
from .ops import (
    add, sub, mul, scale, tsum, tmean,
    reshape, transpose, concat, stack,
    matmul, linear,
    sigmoid, softmax, layer_norm,
    embedding_lookup,
    conv2d, upconv2d, avg_pool2d, bilinear_resize,
    binary_cross_entropy, pixelwise_cross_entropy,
    glorot_uniform, zeros_param, ones_param,
)
from .optim import Adam, adam_step
from .checkpoint import save_checkpoint, load_checkpoint
