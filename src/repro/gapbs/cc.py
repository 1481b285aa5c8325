"""GAP reference connected components: Afforest (Sutton et al., IPDPS'18).

Afforest exploits the fact that most real graphs have one giant component:

1. **Neighbor rounds** — link every vertex to its first few neighbors only
   (O(V) work), which is usually enough to form the giant component.
2. **Sampling** — guess the giant component's label from a vertex sample.
3. **Finish** — process the *remaining* edges only for vertices not already
   in the giant component, skipping the vast majority of edge work.

The paper highlights (following Sutton et al.) that the skip is least
effective on Urand, whose uniform topology leaves more vertices outside the
sampled component — our reproduction preserves that effect because phase 3's
work is measured per-edge.  The three phases are
:func:`repro.core.hooking.afforest`; the reference runs them with the plain
finish.
"""

from __future__ import annotations

from ..core.hooking import afforest

__all__ = ["afforest"]
