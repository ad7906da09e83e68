"""ECG biometric authentication built on RR-interval framing.

Pipeline: raw ECG -> baseline removal -> R-peak detection -> fixed-length
RR frames -> per-entity regression reference functions -> MSE quality gating
(mean + 3 sigma control limit) -> known/unknown decisions -> trial
evaluation with accuracy and overall-performance metrics.
"""

from rrauth.authcore import (AuthDecision, ReferenceDb, ReferenceEntry,
                             authenticate, compute_ucl, enroll, extract_frames,
                             load_db, save_db)
from rrauth.beat import FrameSet, PeakList, detect_rpeaks, frame_rr
from rrauth.evalx import (ConfusionMatrix, SweepPoint, accuracy,
                          overall_performance, run_trials, sweep_ucl)
from rrauth.infotheory import (MiRanking, entropy, conditional_entropy,
                               mutual_information, rank_features)
from rrauth.learners import (DtModel, FitReport, KernelModel, fit_report,
                             predict_dt, train_dt, train_svm_binary, train_svr)
from rrauth.signal import (EcgRecord, SubjectProfile, Wave, load_csv,
                           preprocess, save_csv, synth_ecg)

__version__ = "0.1.0"
