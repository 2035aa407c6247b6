"""refscan: reference-conditioned trajectory retrieval and grounding.

Given per-frame visual token grids, a textual reference, and keyframe
detections, the pipeline retrieves semantic-aligned token trajectories,
aggregates them with linear state-space scans at three semantic
hierarchies, fuses the hierarchies with prompt-augmented cross-attention
over temporal and spatial branches, and predicts the referred person's
box plus multi-label actions. Trainable end to end on synthetic
planted-signal fixtures.
"""
