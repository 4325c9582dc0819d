"""Procedural ground-truth scene oracle: rendering, bundles, mock predictor."""
