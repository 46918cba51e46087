"""noisekit: identify, reduce and score noise in short noisy texts."""
