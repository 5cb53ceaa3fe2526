"""Minimal numpy deep-learning substrate.

The paper trains its models with PyTorch; this container has no deep
learning framework, so the repo ships its own: dense layers with manual
backprop (`layers`), Adam (`adam`), and a binary MLP classifier (`mlp`).
Gradient correctness is verified by finite-difference tests.
"""
from repro.nn.adam import Adam
from repro.nn.layers import Dense, he_init, pack, relu, relu_grad, sigmoid
from repro.nn.mlp import MLPClassifier

__all__ = [
    "Adam",
    "Dense",
    "he_init",
    "pack",
    "relu",
    "relu_grad",
    "sigmoid",
    "MLPClassifier",
]
