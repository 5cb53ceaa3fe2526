"""VAER core: the paper's contribution.

- `vae` / `encode`: unsupervised representation learning (§III)
- `wasserstein`: squared 2-Wasserstein between diagonal Gaussians (Eq. 3)
- `siamese`: supervised matching in the latent space (§IV)
- `lsh`: exact W2 top-k neighbour blocking (§V-A / §VI-B)
- `kde` / `active`: active learning in the latent space (§V)
- `metrics`: the paper's P/R/F1 protocols (§VI-A.2, §VI-B)
"""
