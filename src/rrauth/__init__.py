"""ECG biometric authentication built on RR-interval framing.

Pipeline: raw ECG -> baseline removal -> R-peak detection -> fixed-length
RR frames -> per-entity reference curves (the per-position frame mean, which
the paper's fine regression tree predicts) -> MSE quality gating (mean + 3
sigma control limit) -> known/unknown decisions -> trial evaluation with
accuracy and overall-performance metrics.
"""

__version__ = "0.1.0"
