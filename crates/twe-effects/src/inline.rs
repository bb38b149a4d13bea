//! The short list an [`EffectSet`](crate::EffectSet) keeps its effects in.
//!
//! Nearly every set a task declares holds one or two effects (a service
//! request one; a k-means `accumulate` two: `reads Root, writes
//! Clusters:[k]`). Up to two items therefore live in the list itself, so
//! building or cloning such a set is a copy with no allocation; a third
//! item spills the list to a `Vec`, which from then on behaves as the
//! plain `Vec` did. The list only grows, so its representation is a
//! function of its length, but nothing may rely on that: the list is read
//! as a slice (it derefs to one), and equality and hashing belong to that
//! slice, never to the variant.

use std::ops::Deref;

/// Up to two `Copy` items inline, any number spilled to a `Vec`.
#[derive(Clone, Debug, Default)]
pub(crate) enum InlineList<T: Copy> {
    /// No items.
    #[default]
    Empty,
    /// One item.
    One(T),
    /// Two items, in order.
    Two([T; 2]),
    /// Three or more items.
    Spilled(Vec<T>),
}

impl<T: Copy> Deref for InlineList<T> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        match self {
            InlineList::Empty => &[],
            InlineList::One(item) => std::slice::from_ref(item),
            InlineList::Two(items) => items,
            InlineList::Spilled(items) => items,
        }
    }
}

impl<T: Copy> InlineList<T> {
    /// Appends `item`; a third item spills the list.
    pub(crate) fn push(&mut self, item: T) {
        *self = match std::mem::take(self) {
            InlineList::Empty => InlineList::One(item),
            InlineList::One(first) => InlineList::Two([first, item]),
            InlineList::Two([first, second]) => {
                let mut spilled = Vec::with_capacity(4);
                spilled.extend_from_slice(&[first, second, item]);
                InlineList::Spilled(spilled)
            }
            InlineList::Spilled(mut items) => {
                items.push(item);
                InlineList::Spilled(items)
            }
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pushes_in_order_across_the_spill() {
        let mut list = InlineList::default();
        assert!(list.is_empty());
        list.push(0);
        list.push(1);
        assert!(matches!(list, InlineList::Two(_)));
        list.push(2);
        assert!(matches!(list, InlineList::Spilled(_)));
        list.push(3);
        assert_eq!(&*list, &[0, 1, 2, 3]);
        let copy = list.clone();
        assert_eq!(&*copy, &*list);
    }
}
