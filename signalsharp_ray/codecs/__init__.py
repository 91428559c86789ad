from .dod import decode_timestamps_dod, encode_timestamps_dod
from .gorilla import decode_values_gorilla, encode_values_gorilla

__all__ = [
    "encode_values_gorilla",
    "decode_values_gorilla",
    "encode_timestamps_dod",
    "decode_timestamps_dod",
]
